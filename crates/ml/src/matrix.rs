//! A small dense row-major `f32` matrix — the only tensor type the ML
//! substrate needs. Products run the crate's one GEMM kernel (the
//! column-tiled loop serving predicts with, taking dense blocks of rows
//! at once where the CPU has the registers); a weight gradient folds
//! into its matrix in place (`Matrix::add_t_matmul`); elementwise
//! operations are fused map/zip loops. Every matrix starts on a 64-byte
//! cache line (`Lines`), so a row whose width is a multiple of sixteen
//! floats — the first layer's 64 columns — spans whole lines.

use crate::kernel::Kernel;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Lines,
}

/// Floats in a 64-byte cache line.
const LINE: usize = 16;

/// A row-major buffer whose first float starts a cache line: allocated
/// with room for up to a line of lead floats, of which it skips the
/// `lead` that reach the next line boundary. A 256-byte weight row read
/// from a line boundary touches four lines, not five — a fifth less of
/// the L2 traffic that bounds the prediction walk. Where an allocation
/// lands in a line is the allocator's chance (glibc's are 16-byte
/// aligned), and it would set the speed of a model for its lifetime; a
/// clone is aligned anew. Which floats the buffer holds, and so every
/// value computed from it, does not depend on the lead.
struct Lines {
    buf: Vec<f32>,
    lead: usize,
}

impl Lines {
    /// `len` floats, written by `fill` after the lead; `fill` must push
    /// exactly `len`.
    fn build(len: usize, fill: impl FnOnce(&mut Vec<f32>)) -> Self {
        let mut buf = Vec::with_capacity(len + LINE - 1);
        // An `f32` pointer is a multiple of 4: its float index within
        // its line, and the floats to the next line.
        let lead = (LINE - buf.as_ptr() as usize / 4 % LINE) % LINE;
        buf.resize(lead, 0.0);
        fill(&mut buf);
        // Within the capacity, so the buffer never moved.
        assert_eq!(buf.len(), lead + len, "Lines::build: {len} floats asked");
        Lines { buf, lead }
    }

    fn zeros(len: usize) -> Self {
        Lines::build(len, |buf| buf.resize(buf.len() + len, 0.0))
    }

    fn from_slice(values: &[f32]) -> Self {
        Lines::build(values.len(), |buf| buf.extend_from_slice(values))
    }
}

impl Deref for Lines {
    type Target = [f32];

    #[inline]
    fn deref(&self) -> &[f32] {
        &self.buf[self.lead..]
    }
}

impl DerefMut for Lines {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[self.lead..]
    }
}

impl Clone for Lines {
    fn clone(&self) -> Self {
        Lines::from_slice(self)
    }
}

impl PartialEq for Lines {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Lines {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: Lines::zeros(rows * cols),
        }
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let data = Lines::build(rows * cols, |data| {
            for r in 0..rows {
                for c in 0..cols {
                    data.push(f(r, c));
                }
            }
        });
        Self { rows, cols, data }
    }

    /// A matrix of a row-major buffer, copied to start on a line.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer length {} != {rows}x{cols}",
            data.len()
        );
        Self {
            rows,
            cols,
            data: Lines::from_slice(&data),
        }
    }

    /// Build from row slices (each must have the same length).
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows: empty input");
        let cols = rows[0].len();
        let data = Lines::build(rows.len() * cols, |data| {
            for r in rows {
                assert_eq!(r.len(), cols, "Matrix::from_rows: ragged rows");
                data.extend_from_slice(r);
            }
        });
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The raw row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self · other`: every element is the
    /// ascending-`k` fold `+0.0 + a₀·b₀ + a₁·b₁ + …` that skips
    /// `a = 0` (an all-`-0.0` sum is `+0.0`, and `0 × ∞` adds nothing).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_on(Kernel::detect(), other)
    }

    fn matmul_on(&self, kernel: Kernel, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        kernel.matmul_into(self, other, &mut out);
        out
    }

    /// `selfᵀ · other`: [`Matrix::matmul`] over the transpose, whose row
    /// `i` is column `i` of `self` — the same fold per element.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        self.transpose().matmul(other)
    }

    /// `self += aᵀ · b` folded in place: each element's fold over `k`
    /// continues from its value here instead of from `+0.0`. On a
    /// `self` of `+0.0`s that is `self.add_assign(&a.t_matmul(b))` bit
    /// for bit, without the product's matrix; `self` must hold no
    /// `-0.0` (the kernel's row-block clause).
    pub(crate) fn add_t_matmul(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(
            a.rows, b.rows,
            "add_t_matmul: ({}x{})ᵀ · {}x{}",
            a.rows, a.cols, b.rows, b.cols
        );
        Kernel::detect().matmul_into(&a.transpose(), b, self);
    }

    /// `self · otherᵀ`: [`Matrix::matmul`] over the transpose — the same
    /// fold per element.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        self.matmul(&other.transpose())
    }

    /// Materialized transpose, eight rows at a time: each column of
    /// the eight becomes eight consecutive floats of the output.
    pub fn transpose(&self) -> Matrix {
        const B: usize = 8;
        let (rows, cols) = (self.rows, self.cols);
        let mut out = Matrix::zeros(cols, rows);
        let whole = rows - rows % B;
        for r0 in (0..whole).step_by(B) {
            let from: [&[f32]; B] = std::array::from_fn(|i| self.row(r0 + i));
            for (c, to) in out.data.chunks_exact_mut(rows).enumerate() {
                let to: &mut [f32; B] = (&mut to[r0..r0 + B]).try_into().expect("B floats");
                for (t, from) in to.iter_mut().zip(&from) {
                    *t = from[c];
                }
            }
        }
        for r in whole..rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                out.data[c * rows + r] = v;
            }
        }
        out
    }

    /// Elementwise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: Lines::build(self.data.len(), |data| {
                data.extend(self.data.iter().map(|&v| f(v)))
            }),
        }
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self * scalar`, in place.
    pub fn scale(&mut self, s: f32) {
        for v in self.data.iter_mut() {
            *v *= s;
        }
    }

    /// Elementwise product (Hadamard) into a new matrix.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise binary zip into a new matrix.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: Lines::build(self.data.len(), |data| {
                data.extend(
                    self.data
                        .iter()
                        .zip(other.data.iter())
                        .map(|(&a, &b)| f(a, b)),
                )
            }),
        }
    }

    /// Add a row vector to every row (broadcast).
    pub fn add_row_broadcast(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols);
        for r in 0..self.rows {
            for (v, b) in self.row_mut(r).iter_mut().zip(row) {
                *v += b;
            }
        }
    }

    /// Column sums (length = cols).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Column means.
    pub fn col_means(&self) -> Vec<f32> {
        let mut s = self.col_sums();
        let n = self.rows.max(1) as f32;
        for v in &mut s {
            *v /= n;
        }
        s
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Extract a contiguous block of rows `[start, end)`.
    pub fn rows_range(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows);
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: Lines::from_slice(&self.data[start * self.cols..end * self.cols]),
        }
    }

    /// Extract a contiguous block of columns `[start, end)`.
    pub fn cols_range(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols);
        let mut out = Matrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Horizontally concatenate two matrices with equal row counts.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat: row count mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            let dst = out.row_mut(r);
            dst[..self.cols].copy_from_slice(self.row(r));
            dst[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Gather a subset of rows by index.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    /// Every way to a matrix starts it on a cache line — a clone and a
    /// matrix taken from a `Vec` anywhere in a line included — and the
    /// lead is never part of its value.
    #[test]
    fn every_matrix_starts_a_cache_line() {
        let a = Matrix::from_fn(3, 64, |r, c| (r * 64 + c) as f32);
        let unaligned = vec![0.5f32; 200];
        let made = [
            Matrix::zeros(5, 7),
            a.clone(),
            Matrix::from_vec(2, 3, vec![1.0; 6]),
            Matrix::from_vec(1, 199, unaligned[1..].to_vec()),
            Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]),
            a.map(|v| v + 1.0),
            a.zip(&a, |x, y| x * y),
            a.rows_range(1, 3),
            a.transpose(),
        ];
        for m in made.iter().chain([&a]) {
            assert_eq!(m.as_slice().as_ptr() as usize % 64, 0, "{m}");
        }
        assert_eq!(made[1], a);
        assert_eq!(made[3].as_slice(), &unaligned[1..]);
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c, m(2, 2, &[58., 64., 139., 154.]));
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_variants_agree() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(2, 4, &[1., 0., 2., -1., 3., 1., 0., 2.]);
        // aᵀ·b via t_matmul == transpose().matmul
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
        // a·cᵀ via matmul_t == matmul(transpose)
        let c = m(4, 3, &[1., 2., 0., 0., 1., 1., 2., 0., 1., 1., 1., 1.]);
        assert_eq!(a.matmul_t(&c), a.matmul(&c.transpose()));
    }

    #[test]
    fn matmul_t_sums_negative_zeros_to_positive_zero() {
        // The one place the sign of a zero is the kernel's choice: every
        // product is -0.0 (first row) or skipped as `0 · b` (second), and
        // the fold starts from `matmul`'s +0.0, not `Iterator::sum`'s
        // toolchain-dependent neutral element.
        let a = m(2, 2, &[1., 2., 0., -0.]);
        let c = m(3, 2, &[-0., -0., 0., -0., -0., 0.]);
        let out = a.matmul_t(&c);
        assert_eq!((out.rows(), out.cols()), (2, 3));
        for v in out.as_slice() {
            assert_eq!(v.to_bits(), 0.0f32.to_bits());
        }
    }

    /// The products' contract, written the obvious way: per output row,
    /// sums from `+0.0`, ascending `k`, `a == 0` skipped.
    fn naive_ikj(a: &Matrix, b: &Matrix) -> Vec<f32> {
        let n = b.cols();
        let mut out = vec![0.0f32; a.rows() * n];
        for i in 0..a.rows() {
            for (k, &x) in a.row(i).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += x * b.get(k, j);
                }
            }
        }
        out
    }

    /// Bit for bit, except that a NaN matches any NaN: which NaN an
    /// `∞ − ∞` yields is the hardware's choice, not the contract's.
    fn assert_same_sums(got: &Matrix, want: &[f32], what: &str) {
        assert_eq!(got.as_slice().len(), want.len(), "{what}: shape");
        for (at, (g, w)) in got.as_slice().iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {at} is {g:e} ({:#010x}), the fold says {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Zeros of both signs, negatives, subnormals and — where `inf` —
    /// infinities, which make a multiplied zero input show as a NaN.
    fn awkward(rng: &mut impl rand::Rng, inf: bool) -> f32 {
        let magnitude = match rng.gen_range(0..if inf { 6 } else { 5 }) {
            0 => 0.0,
            1 => f32::from_bits(rng.gen_range(1..0x0080_0000)),
            5 => f32::INFINITY,
            _ => rng.gen_range(0.0f32..4.0),
        };
        if rng.gen() {
            -magnitude
        } else {
            magnitude
        }
    }

    /// An input of kind `kind`: 0 awkward (a fifth zeros), 1 mostly
    /// zero, 2 bits, 3 awkward but never zero, 4 all ones — so that the
    /// kernel's row blocks are taken and not, against finite weights and
    /// not, and rows of bits are walked add-only.
    fn input(rng: &mut impl rand::Rng, kind: u8) -> f32 {
        match kind {
            0 => awkward(rng, false),
            1 if rng.gen_range(0..4) == 0 => awkward(rng, false),
            1 => 0.0,
            2 if rng.gen() => 1.0,
            2 => 0.0,
            3 => loop {
                let a = awkward(rng, false);
                if a != 0.0 {
                    break a;
                }
            },
            _ => 1.0,
        }
    }

    /// `matmul` on every instantiation of the kernel, and `t_matmul` /
    /// `matmul_t` (a transpose, then `matmul`), against the naive fold
    /// at output widths that meet every tile width.
    fn assert_products_are_the_naive_fold(a: &Matrix, rng: &mut impl rand::Rng, inf: bool) {
        let (rows, inner) = (a.rows(), a.cols());
        for width in [1, 7, 31, 33, 63, 64, 65, 127, 128, 129, 1024] {
            let b = Matrix::from_fn(inner, width, |_, _| awkward(rng, inf));
            let want = naive_ikj(a, &b);
            let shape = format!("{rows}x{inner} · {inner}x{width} (inf {inf})");
            for kernel in Kernel::instantiations() {
                let what = format!("matmul on {}, {shape}", kernel.name());
                assert_same_sums(&a.matmul_on(kernel, &b), &want, &what);
            }
            assert_same_sums(
                &a.transpose().t_matmul(&b),
                &want,
                &format!("t_matmul, {shape}"),
            );
            assert_same_sums(
                &a.matmul_t(&b.transpose()),
                &want,
                &format!("matmul_t, {shape}"),
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Inputs a fifth zero against weights that may be infinite, at
        /// row counts that make whole row blocks and remainders.
        #[test]
        fn products_are_the_naive_fold_on_both_kernels(
            rows in 0usize..=9,
            inner in 0usize..=70,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = crate::rng::seeded(seed);
            let a = Matrix::from_fn(rows, inner, |_, _| awkward(&mut rng, false));
            assert_products_are_the_naive_fold(&a, &mut rng, true);
        }

        /// The same for inputs mostly zero, bits, never zero or all
        /// ones, against weights finite or not.
        #[test]
        fn products_of_every_input_kind_are_the_naive_fold(
            rows in 0usize..=9,
            inner in 0usize..=70,
            kind in 1u8..5,
            inf in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = crate::rng::seeded(seed);
            let a = Matrix::from_fn(rows, inner, |_, _| input(&mut rng, kind));
            assert_products_are_the_naive_fold(&a, &mut rng, inf);
        }
    }

    #[test]
    fn a_zero_input_adds_nothing_even_against_an_infinite_row() {
        let a = m(2, 2, &[0., 1., -0., 2.]);
        let inf = f32::INFINITY;
        let b = m(2, 3, &[inf, -inf, f32::NAN, 1., 2., 3.]);
        for kernel in Kernel::instantiations() {
            assert_eq!(a.matmul_on(kernel, &b), m(2, 3, &[1., 2., 3., 2., 4., 6.]));
        }
        assert_eq!(a.transpose().t_matmul(&b), a.matmul(&b));
        assert_eq!(a.matmul_t(&b.transpose()), a.matmul(&b));
    }

    /// The same inside a row block: in a dense block, one row's zero
    /// input (of either sign) meets an infinite weight row that every
    /// other row of the block multiplies by a non-zero. The other rows
    /// get ±∞ or NaN there; that row gets nothing.
    #[test]
    fn a_zero_input_in_a_row_block_adds_nothing_against_an_infinite_row() {
        let inf = f32::INFINITY;
        for width in [1, 5, 64, 128, 1024] {
            let b = Matrix::from_fn(3, width, |k, c| match (k, c % 3) {
                (1, 0) => inf,
                (1, 1) => -inf,
                (1, _) => f32::NAN,
                _ => (k * 7 + c % 5) as f32 - 3.5,
            });
            for rows in [2, 4, 8, 9] {
                for zero in [0.0, -0.0] {
                    let a = Matrix::from_fn(rows, 3, |r, k| match (r, k) {
                        (1, 1) => zero,
                        _ => (r + k) as f32 * 0.25 + 0.5,
                    });
                    let want = naive_ikj(&a, &b);
                    let alone: Vec<f32> = (0..width)
                        .map(|c| 0.0 + a.get(1, 0) * b.get(0, c) + a.get(1, 2) * b.get(2, c))
                        .collect();
                    assert_eq!(&want[width..2 * width], &alone[..]);
                    for kernel in Kernel::instantiations() {
                        let what = format!(
                            "{rows} rows, width {width}, zero {zero:?}, {}",
                            kernel.name()
                        );
                        let got = a.matmul_on(kernel, &b);
                        assert_same_sums(&got, &want, &what);
                        assert!(got.row(1).iter().all(|v| v.is_finite()), "{what}");
                    }
                }
            }
        }
    }

    /// On a freshly zeroed gradient, folding `aᵀ · b` in place is the
    /// former `add_assign(&a.t_matmul(b))`, bit for bit — negative zeros
    /// and row blocks with and without zeros included.
    #[test]
    fn folding_in_place_on_zeros_is_adding_the_product() {
        let mut rng = crate::rng::seeded(0x0F01D);
        for (batch, fan_in, width) in [
            (64, 64, 1024),
            (64, 1024, 64),
            (9, 7, 20),
            (5, 3, 1),
            (0, 4, 6),
        ] {
            for kind in 0..5 {
                let a = Matrix::from_fn(batch, fan_in, |_, _| input(&mut rng, kind));
                let b = Matrix::from_fn(batch, width, |_, _| awkward(&mut rng, false));
                let mut folded = Matrix::zeros(fan_in, width);
                folded.add_t_matmul(&a, &b);
                let mut added = Matrix::zeros(fan_in, width);
                added.add_assign(&a.t_matmul(&b));
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&folded),
                    bits(&added),
                    "{batch}x{fan_in}ᵀ · {batch}x{width}, kind {kind}"
                );
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        let wide = Matrix::from_fn(17, 35, |r, c| (r * 35 + c) as f32);
        let t = wide.transpose();
        assert_eq!((t.rows(), t.cols()), (35, 17));
        assert!((0..17).all(|r| (0..35).all(|c| t.get(c, r) == wide.get(r, c))));
        assert_eq!(t.transpose(), wide);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn broadcast_and_sums() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1., 2., 3.]);
        assert_eq!(a.col_sums(), vec![2., 4., 6.]);
        assert_eq!(a.col_means(), vec![1., 2., 3.]);
        assert_eq!(a.sum(), 12.0);
    }

    #[test]
    fn hadamard_and_zip() {
        let a = m(1, 3, &[1., 2., 3.]);
        let b = m(1, 3, &[4., 5., 6.]);
        assert_eq!(a.hadamard(&b), m(1, 3, &[4., 10., 18.]));
        assert_eq!(a.zip(&b, |x, y| y - x), m(1, 3, &[3., 3., 3.]));
    }

    #[test]
    fn slicing() {
        let a = m(3, 4, &(0..12).map(|v| v as f32).collect::<Vec<_>>());
        assert_eq!(a.rows_range(1, 3).row(0), &[4., 5., 6., 7.]);
        assert_eq!(a.cols_range(1, 3).row(2), &[9., 10.]);
        assert_eq!(a.select_rows(&[2, 0]).row(0), &[8., 9., 10., 11.]);
    }

    #[test]
    fn hcat_widths_add() {
        let a = m(2, 1, &[1., 2.]);
        let b = m(2, 2, &[3., 4., 5., 6.]);
        let c = a.hcat(&b);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.row(1), &[2., 5., 6.]);
    }

    #[test]
    fn map_and_scale() {
        let mut a = m(1, 3, &[1., -2., 3.]);
        let abs = a.map(f32::abs);
        assert_eq!(abs.row(0), &[1., 2., 3.]);
        a.scale(2.0);
        assert_eq!(a.row(0), &[2., -4., 6.]);
        a.map_inplace(|v| v + 1.0);
        assert_eq!(a.row(0), &[3., -3., 7.]);
    }

    #[test]
    fn add_assign_in_place() {
        let mut a = m(1, 2, &[1., 2.]);
        a.add_assign(&m(1, 2, &[3., 4.]));
        assert_eq!(a.row(0), &[4., 6.]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
