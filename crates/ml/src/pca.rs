//! Principal Component Analysis of rows of bits via orthogonal
//! (subspace) iteration.
//!
//! The PNW baseline (Kargar et al., ICDE '21) reduces dimensionality
//! with PCA before K-means; the paper's Figure 4 sweeps feature counts
//! up to 16384, so an explicit `d × d` covariance eigendecomposition is
//! not an option. Orthogonal iteration only touches the data through
//! products `X·B` and `Xᵀ·(X·B)`, which scales to the full sweep. The
//! data are segments' bits — about a fifth of them set on MNIST-like
//! content — so the fit builds no centered `n × d` float copy: it
//! decodes every row's set bits once ([`SetBits`]), and each sweep walks
//! those lists on the serving kernel and takes the mean out as one
//! rank-one correction per product, `O(nnz·p)` instead of `O(n·d·p)`.
//!
//! A fitted PCA and the K-means fitted on its scores compile into a
//! [`Placer`] ([`Pca::placer`]), so PNW is served by the same kernel
//! and the same address pool as the VAE; the scores are the placer's
//! own `x·W + b`, bit for bit ([`Pca::transform`]).

use crate::activation::Activation;
use crate::bits::{set_bit_indices, BitMatrix};
use crate::kernel::Kernel;
use crate::kmeans::KMeans;
use crate::matrix::Matrix;
use crate::predict::Placer;
use crate::rng;
use rand::Rng;

/// A fitted PCA: data mean and the top principal directions.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f32>,
    /// `d × p` matrix of orthonormal principal directions (columns).
    components: Matrix,
}

impl Pca {
    /// Fit the top `p` components of `bits`' rows with `sweeps`
    /// orthogonal-iteration rounds (8–15 is plenty for the
    /// well-separated spectra of bit-pattern data). The mean is each
    /// feature's set-bit count over `n`. Every sweep computes the
    /// centered scores `Y = X·B − 1·(mean·B)` over the rows' set bits
    /// and the next directions `Xᵀ·Y − meanᵀ·colsum(Y)` over the
    /// features' set bits — a gather of `Y`'s rows — and
    /// orthonormalizes them; every walk is in ascending index.
    ///
    /// # Panics
    /// Panics if `bits` has no rows, no features or more than
    /// [`crate::bits::MAX_INPUT_BITS`], or if `p == 0`.
    pub fn fit<R: Rng>(bits: &BitMatrix, p: usize, sweeps: usize, rng: &mut R) -> Self {
        let (n, d) = (bits.rows(), bits.cols());
        assert!(n > 0, "Pca::fit: empty data");
        assert!(d > 0, "Pca::fit: no features");
        assert!(p > 0, "Pca::fit: zero components");
        let p = p.min(d).min(n);
        let kernel = Kernel::detect();
        let set = SetBits::new(kernel, bits);
        let mean: Vec<f32> = (0..d).map(|j| set.count(j) as f32 / n as f32).collect();
        let mean_row = Matrix::from_vec(1, d, mean.clone());

        // B and Y are `p` columns wide rounded up to a power of two,
        // the columns past `p` zero throughout: each walk then runs one
        // tile (p = 12: one 16-wide tile, not an 8- and a 4-wide walk),
        // and no column's sums change (the kernel's column-tile clause).
        // B starts as `d × p` normal draws, row after row.
        let wide = p.next_power_of_two();
        let mut b = Matrix::zeros(d, wide);
        for j in 0..d {
            rng::fill_normal(rng, &mut b.row_mut(j)[..p], 1.0);
        }
        let mut columns = Vec::with_capacity(p * d);
        orthonormalize(&mut b, p, &mut columns);
        let mut y = Matrix::zeros(n, wide);
        for _ in 0..sweeps.max(1) {
            let mean_b = mean_row.matmul(&b);
            y.as_mut_slice().fill(0.0);
            for r in 0..n {
                let scores = y.row_mut(r);
                kernel.add_set_rows(&b, set.row(r), scores);
                for (v, m) in scores.iter_mut().zip(mean_b.row(0)) {
                    *v -= m;
                }
            }
            // B <- (X − 1·mean)ᵀ·Y, block after block of rows;
            // covariance scaling is irrelevant to the direction
            // iteration.
            let col_sums = y.col_sums();
            for (j, &m) in mean.iter().enumerate() {
                let next = b.row_mut(j);
                next.fill(0.0);
                for k in 0..set.blocks() {
                    let first = k * BLOCK_ROWS;
                    let rows = set.column(k, j).iter();
                    kernel.add_rows(&y, rows.map(|&r| (first + usize::from(r), 1.0)), next);
                }
                for (v, s) in next.iter_mut().zip(&col_sums) {
                    *v -= m * s;
                }
            }
            orthonormalize(&mut b, p, &mut columns);
        }
        Self {
            mean,
            components: b.cols_range(0, p),
        }
    }

    /// Number of components.
    pub fn p(&self) -> usize {
        self.components.cols()
    }

    /// The scores of `bits`' rows (`n × p`): each row's `x·W + b` with
    /// `b = −mean·W`, what [`Pca::placer`]'s layer computes for it, bit
    /// for bit — the centered projection `(x − mean)·W` up to rounding.
    pub fn transform(&self, bits: &BitMatrix) -> Matrix {
        self.transform_on(Kernel::detect(), bits)
    }

    /// [`Pca::transform`] on `kernel`.
    fn transform_on(&self, kernel: Kernel, bits: &BitMatrix) -> Matrix {
        assert_eq!(bits.cols(), self.mean.len(), "Pca::transform: wrong dim");
        let bias = self.bias();
        let mut scores = Matrix::zeros(bits.rows(), self.p());
        let mut set = Vec::new();
        for r in 0..bits.rows() {
            let row = scores.row_mut(r);
            let set = set_bit_indices(kernel, bits.row(r), 0, &mut set);
            kernel.add_set_rows(&self.components, set, row);
            Activation::Linear.apply_biased(kernel, &bias, row);
        }
        scores
    }

    /// Mean squared reconstruction error of `bits`' rows: the squared
    /// distance of each centered row from its projection onto the
    /// components, summed over features and averaged over rows — the
    /// PCA's counterpart of a VAE's reconstruction loss. The components
    /// are orthonormal, so a row's error is `‖x − m‖² − ‖(x − m)·W‖²`,
    /// its score's norm taken from [`Pca::transform`]; for bits,
    /// `‖x − m‖² = Σ m² + Σ over the set bits of (1 − 2mᵢ)`. All in
    /// `f64`.
    ///
    /// # Panics
    /// Panics if `bits` has no rows or is of another width than the
    /// fit.
    pub fn reconstruction_error(&self, bits: &BitMatrix) -> f32 {
        assert!(bits.rows() > 0, "Pca::reconstruction_error: empty data");
        let kernel = Kernel::detect();
        let scores = self.transform_on(kernel, bits);
        let mean_sq: f64 = self.mean.iter().map(|&m| f64::from(m).powi(2)).sum();
        let per_bit: Vec<f64> = self
            .mean
            .iter()
            .map(|&m| 1.0 - 2.0 * f64::from(m))
            .collect();
        let mut set = Vec::new();
        let total: f64 = (0..bits.rows())
            .map(|r| {
                let set = set_bit_indices(kernel, bits.row(r), 0, &mut set);
                let spread: f64 = set.iter().map(|&i| per_bit[usize::from(i)]).sum();
                let kept: f64 = scores.row(r).iter().map(|&s| f64::from(s).powi(2)).sum();
                mean_sq + spread - kept
            })
            .sum();
        (total / bits.rows() as f64) as f32
    }

    /// The component matrix (`d × p`).
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// The bias `−mean·W` that makes `x·W + b` the centered score.
    fn bias(&self) -> Vec<f32> {
        let mean = Matrix::from_vec(1, self.mean.len(), self.mean.clone());
        let mean_w = mean.matmul(&self.components);
        mean_w.as_slice().iter().map(|v| -v).collect()
    }

    /// Compile the projection and `kmeans`, fitted on its scores, into
    /// a [`Placer`] of one [`Activation::Linear`] layer: weights `W` =
    /// the components, bias `b = −mean·W`. A segment's bits `x` land at
    /// `x·W + b`, which the placer computes under the summation-order
    /// contract of the [`crate::predict`] module: its μ is
    /// [`Pca::transform`]'s score and its clusters `kmeans`' order of
    /// it, bit for bit.
    ///
    /// # Panics
    /// Panics unless the PCA was fitted on a whole number of bytes of
    /// bit features and `kmeans`' centroids have one column per
    /// component.
    pub fn placer(&self, kmeans: KMeans) -> Placer {
        let layer = (self.components.clone(), self.bias(), Activation::Linear);
        Placer::new(vec![layer], kmeans).unwrap_or_else(|e| panic!("Pca::placer: {e}"))
    }
}

/// Rows per block of [`SetBits`]' feature lists: a row's place in its
/// block fits a `u16`, as a feature's index does.
const BLOCK_ROWS: usize = 1 << 16;

/// The set bits of a [`BitMatrix`], decoded once for every sweep of a
/// fit into two flat lists, each ascending: every row's features, and
/// — per block of [`BLOCK_ROWS`] rows — every feature's rows.
struct SetBits {
    /// Row `r`'s set features: `features[row_at[r]..row_at[r + 1]]`.
    features: Vec<u16>,
    row_at: Vec<usize>,
    /// Feature `j`'s set rows in block `k`, counted from the block's
    /// first row: `rows[col_at[k·d + j]..col_at[k·d + j + 1]]`.
    rows: Vec<u16>,
    col_at: Vec<usize>,
    /// Number of features.
    d: usize,
}

impl SetBits {
    fn new(kernel: Kernel, bits: &BitMatrix) -> Self {
        let (n, d) = (bits.rows(), bits.cols());
        let ones =
            |r: usize| -> usize { bits.row(r).iter().map(|b| b.count_ones() as usize).sum() };
        let nnz: usize = (0..n).map(ones).sum();
        let mut features = Vec::with_capacity(nnz);
        let mut row_at = Vec::with_capacity(n + 1);
        row_at.push(0);
        let mut col_at = vec![0; n.div_ceil(BLOCK_ROWS) * d + 1];
        let mut set = Vec::new();
        for r in 0..n {
            let set = set_bit_indices(kernel, bits.row(r), 0, &mut set);
            let block = r / BLOCK_ROWS * d;
            for &j in set {
                col_at[block + usize::from(j) + 1] += 1;
            }
            features.extend_from_slice(set);
            row_at.push(features.len());
        }
        for i in 1..col_at.len() {
            col_at[i] += col_at[i - 1];
        }
        // Each (block, feature) list's next free slot.
        let mut next = col_at.clone();
        let mut rows = vec![0; nnz];
        for r in 0..n {
            let block = r / BLOCK_ROWS * d;
            for &j in &features[row_at[r]..row_at[r + 1]] {
                let at = &mut next[block + usize::from(j)];
                rows[*at] = (r % BLOCK_ROWS) as u16;
                *at += 1;
            }
        }
        SetBits {
            features,
            row_at,
            rows,
            col_at,
            d,
        }
    }

    /// Row `r`'s set features, ascending.
    fn row(&self, r: usize) -> &[u16] {
        &self.features[self.row_at[r]..self.row_at[r + 1]]
    }

    /// Number of blocks of rows.
    fn blocks(&self) -> usize {
        (self.col_at.len() - 1) / self.d
    }

    /// Feature `j`'s set rows in block `k`, ascending, counted from the
    /// block's first row.
    fn column(&self, k: usize, j: usize) -> &[u16] {
        let at = k * self.d + j;
        &self.rows[self.col_at[at]..self.col_at[at + 1]]
    }

    /// The number of rows with feature `j` set.
    fn count(&self, j: usize) -> usize {
        (0..self.blocks()).map(|k| self.column(k, j).len()).sum()
    }
}

/// Gram–Schmidt orthonormalization of the first `p` columns of `b`, in
/// place: each column in turn loses its projection on every earlier one
/// and is normalized. The columns are copied out to `columns` (reused
/// scratch) and walked there as contiguous slices.
fn orthonormalize(b: &mut Matrix, p: usize, columns: &mut Vec<f32>) {
    let d = b.rows();
    columns.clear();
    let source: &Matrix = b;
    columns.extend((0..p).flat_map(|c| (0..d).map(move |r| source.get(r, c))));
    for j in 0..p {
        let (done, rest) = columns.split_at_mut(j * d);
        let column = &mut rest[..d];
        for prev in done.chunks_exact(d) {
            let dot: f32 = column.iter().zip(prev).map(|(v, q)| v * q).sum();
            for (v, q) in column.iter_mut().zip(prev) {
                *v -= dot * q;
            }
        }
        let norm: f32 = column.iter().map(|v| v.powi(2)).sum::<f32>().sqrt();
        if norm > f32::EPSILON {
            for v in column.iter_mut() {
                *v /= norm;
            }
        } else {
            // Degenerate column: reset to a unit basis vector.
            for (r, v) in column.iter_mut().enumerate() {
                *v = if r == j % d { 1.0 } else { 0.0 };
            }
        }
    }
    for (c, column) in columns.chunks_exact(d).enumerate() {
        for (r, &v) in column.iter().enumerate() {
            b.set(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{features_to_bytes, segments_to_matrix};
    use crate::persist::Persist;
    use crate::predict::PredictScratch;
    use crate::rng::seeded;

    /// `n` rows of `bytes` bytes: the `signal` features all set in
    /// every other row — the line the data lie on — and feature `c` of
    /// row `r` set where `noise(r, c)` says so.
    fn line_bits(
        n: usize,
        bytes: usize,
        signal: &[usize],
        mut noise: impl FnMut(usize, usize) -> bool,
    ) -> BitMatrix {
        let rows: Vec<Vec<u8>> = (0..n)
            .map(|r| {
                let features: Vec<f32> = (0..8 * bytes)
                    .map(|c| {
                        let set = if signal.contains(&c) {
                            r % 2 == 1
                        } else {
                            noise(r, c)
                        };
                        f32::from(u8::from(set))
                    })
                    .collect();
                features_to_bytes(&features)
            })
            .collect();
        BitMatrix::from_segments(&rows)
    }

    /// The variance of the scores of `bits`' rows along component 0.
    fn captured(pca: &Pca, bits: &BitMatrix) -> f32 {
        let scores = pca.transform(bits);
        scores.as_slice().iter().map(|v| v * v).sum::<f32>() / bits.rows() as f32
    }

    #[test]
    fn recovers_dominant_direction() {
        let mut rng = seeded(1);
        let signal = [0, 1, 2, 3];
        let data = line_bits(200, 2, &signal, |_, _| rng.gen::<f32>() < 0.05);
        let pca = Pca::fit(&data, 1, 12, &mut rng);
        let c: Vec<f32> = (0..16).map(|r| pca.components().get(r, 0)).collect();
        // Component equals ±dir, 0.5 on each signal feature.
        let dot: f32 = signal.iter().map(|&i| 0.5 * c[i]).sum();
        assert!(dot.abs() > 0.99, "dot={dot} c={c:?}");
    }

    #[test]
    fn components_are_orthonormal() {
        let mut rng = seeded(2);
        let data = BitMatrix::from_segments(&bit_rows(100, &mut rng));
        let pca = Pca::fit(&data, 3, 10, &mut rng);
        let b = pca.components();
        for i in 0..3 {
            for j in 0..3 {
                let dot: f32 = (0..b.rows()).map(|r| b.get(r, i) * b.get(r, j)).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-4, "B[{i}]·B[{j}]={dot}");
            }
        }
    }

    /// The scores of the fitted rows average to zero: `b = −mean·W`
    /// centers them, to rounding, against a spread of ±1.
    #[test]
    fn transform_centers_data() {
        let mut rng = seeded(3);
        let data = line_bits(100, 1, &[0], |_, _| rng.gen::<f32>() < 0.1);
        let pca = Pca::fit(&data, 1, 10, &mut rng);
        let scores = pca.transform(&data);
        let mean: f32 = scores.as_slice().iter().sum::<f32>() / scores.rows() as f32;
        assert!(mean.abs() < 1e-3, "scores not centered: {mean}");
        assert!(captured(&pca, &data) > 0.2);
    }

    /// Data on a line is reconstructed from its one component, to the
    /// one noise bit; with no component's worth of the spread kept, the
    /// error is the variance the line carries.
    #[test]
    fn reconstruction_error_is_the_variance_left_out() {
        let mut rng = seeded(4);
        let data = line_bits(200, 1, &[0, 1], |r, c| r == 0 && c == 2);
        let pca = Pca::fit(&data, 1, 12, &mut rng);
        assert!(pca.reconstruction_error(&data) < 0.01);
        let off = Pca {
            mean: pca.mean.clone(),
            components: Matrix::from_fn(8, 1, |r, _| f32::from(u8::from(r == 2))),
        };
        let x = data.to_features();
        let spread: f32 = (0..200)
            .map(|r| {
                (0..8)
                    .map(|c| (x.get(r, c) - pca.mean[c]).powi(2))
                    .sum::<f32>()
            })
            .sum::<f32>()
            / 200.0;
        let err = off.reconstruction_error(&data);
        assert!((err - spread).abs() < 0.02 * spread, "{err} vs {spread}");
    }

    #[test]
    fn p_capped_by_dims() {
        let mut rng = seeded(5);
        let wide = BitMatrix::from_segments(&bit_rows(10, &mut rng)[..3]);
        assert_eq!(Pca::fit(&wide, 99, 5, &mut rng).p(), 3, "capped by rows");
        let narrow: Vec<[u8; 1]> = (0..10u8).map(|r| [r.wrapping_mul(37)]).collect();
        let narrow = BitMatrix::from_segments(&narrow);
        assert_eq!(
            Pca::fit(&narrow, 99, 5, &mut rng).p(),
            8,
            "capped by features"
        );
    }

    /// The line's variance is 4 × ¼ = 1 (four signal features, set in
    /// every other row); the top component keeps nearly all of it, and
    /// a random direction does not.
    #[test]
    fn projection_preserves_variance_better_than_random() {
        let mut rng = seeded(6);
        let data = line_bits(200, 2, &[0, 5, 10, 15], |_, _| rng.gen::<f32>() < 0.05);
        let pca = Pca::fit(&data, 1, 12, &mut rng);
        let var = captured(&pca, &data);
        assert!(var > 0.9, "captured var={var}");
        let mut random = Matrix::zeros(16, 1);
        rng::fill_normal(&mut rng, random.as_mut_slice(), 1.0);
        orthonormalize(&mut random, 1, &mut Vec::new());
        let random = Pca {
            mean: pca.mean.clone(),
            components: random,
        };
        assert!(
            captured(&random, &data) < var,
            "a random direction kept more"
        );
    }

    /// More rows than one block of the feature lists holds: the data
    /// repeated has the data's mean and top direction, so the fit
    /// across two blocks finds the one-block fit's.
    #[test]
    fn a_fit_across_row_blocks_finds_the_same_component() {
        let mut rng = seeded(7);
        let rows = bit_rows(1000, &mut rng);
        let rows: Vec<&[u8]> = rows.iter().map(|r| &r[..1]).collect();
        let once = BitMatrix::from_segments(&rows);
        let repeated: Vec<&[u8]> = rows.iter().cycle().take(70 * rows.len()).copied().collect();
        let repeated = BitMatrix::from_segments(&repeated);
        assert!(repeated.rows() > BLOCK_ROWS);
        let a = Pca::fit(&once, 1, 12, &mut seeded(8));
        let b = Pca::fit(&repeated, 1, 12, &mut seeded(8));
        assert_eq!(a.mean, b.mean);
        let dot: f32 = (0..8)
            .map(|r| a.components().get(r, 0) * b.components().get(r, 0))
            .sum();
        assert!(dot.abs() > 0.9999, "dot={dot}");
    }

    /// Not a whole number of 64-bit words, so the kernel's tail runs.
    const BYTES: usize = 18;

    /// Random bit rows of `BYTES` bytes, of every density.
    fn bit_rows(n: usize, rng: &mut impl Rng) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let density = i as f32 / n as f32;
                (0..BYTES)
                    .map(|_| {
                        (0..8).fold(0u8, |b, _| (b << 1) | u8::from(rng.gen::<f32>() < density))
                    })
                    .collect()
            })
            .collect()
    }

    /// For p ∈ {1, 12, 16} × k ∈ {1, 3, 10}: a PCA of `p` components
    /// and a K-means of `k` clusters on its scores, fitted on seeded
    /// random bit rows, their placer, and rows to ask it about (the
    /// training rows and as many fresh ones), as bytes and packed.
    fn fitted() -> impl Iterator<Item = (Pca, KMeans, Placer, Vec<Vec<u8>>, BitMatrix)> {
        [1, 12, 16].into_iter().flat_map(|p| {
            [1, 3, 10].into_iter().map(move |k| {
                let mut rng = seeded(0x9CA ^ (p * 31 + k) as u64);
                let mut segments = bit_rows(96, &mut rng);
                let bits = BitMatrix::from_segments(&segments);
                let pca = Pca::fit(&bits, p, 10, &mut rng);
                let kmeans = KMeans::fit(&pca.transform(&bits), k, 30, &mut rng).model;
                let placer = pca.placer(kmeans.clone());
                segments.extend(bit_rows(96, &mut rng));
                let bits = BitMatrix::from_segments(&segments);
                (pca, kmeans, placer, segments, bits)
            })
        })
    }

    /// `x·W + b` on the `Matrix` path: the product, then the bias.
    fn matrix_path(placer: &Placer, pca: &Pca, features: &Matrix) -> Matrix {
        let mut z = features.matmul(pca.components());
        z.add_row_broadcast(&placer.layers[0].bias);
        z
    }

    fn to_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// The compiled placer's order is `KMeans`' order of the `Matrix`
    /// path's `x·W + b` to the bit, on every instantiation of the
    /// kernel this CPU runs — and its nearest cluster the order's first.
    #[test]
    fn placer_orders_as_the_matrix_path_exactly() {
        for (pca, kmeans, placer, segments, bits) in fitted() {
            let z = matrix_path(&placer, &pca, &segments_to_matrix(&segments));
            assert_eq!(bits.rows(), segments.len());
            for kernel in Kernel::instantiations() {
                let mut scratch = PredictScratch::on(kernel);
                for (r, segment) in segments.iter().enumerate() {
                    let expected = kmeans.clusters_by_distance(z.row(r));
                    let what = format!(
                        "p {}, k {}, row {r}, {}",
                        pca.p(),
                        kmeans.k(),
                        kernel.name()
                    );
                    assert_eq!(
                        placer.order_packed(segment, &mut scratch),
                        expected,
                        "{what}"
                    );
                    assert_eq!(placer.predict_packed(segment, &mut scratch), expected[0]);
                }
            }
        }
    }

    /// A compiled placer survives the model codec: the bytes it loads
    /// back from re-encode to themselves, and it orders the same.
    #[test]
    fn placer_round_trips_the_codec() {
        for (_, _, placer, segments, _) in fitted() {
            let bytes = placer.to_bytes();
            let loaded = Placer::from_bytes(&bytes).unwrap();
            assert_eq!(loaded.to_bytes(), bytes);
            let (mut a, mut b) = (PredictScratch::default(), PredictScratch::default());
            for segment in &segments {
                assert_eq!(
                    loaded.order_packed(segment, &mut a),
                    placer.order_packed(segment, &mut b)
                );
            }
        }
    }

    /// The scores K-means clusters are the compiled μ to the bit, on
    /// every instantiation of the kernel: [`Pca::transform`] is the
    /// placer's `x·W + b`, and the `Matrix` path's.
    #[test]
    fn placer_latent_is_the_transform_exactly() {
        for (pca, _, placer, segments, bits) in fitted() {
            let z = matrix_path(&placer, &pca, &bits.to_features());
            for kernel in Kernel::instantiations() {
                let scores = pca.transform_on(kernel, &bits);
                let what = format!("p {}, {}", pca.p(), kernel.name());
                assert_eq!(to_bits(scores.as_slice()), to_bits(z.as_slice()), "{what}");
                let mut scratch = PredictScratch::on(kernel);
                for (r, segment) in segments.iter().enumerate() {
                    placer.predict_packed(segment, &mut scratch);
                    let mu = to_bits(scratch.latent());
                    assert_eq!(mu, to_bits(scores.row(r)), "{what}, row {r}");
                }
            }
        }
    }

    /// The reconstruction error from the scores' norms is the squared
    /// residual `‖(x − m) − (x − m)·W·Wᵀ‖²` computed directly, in `f64`
    /// from the floats.
    #[test]
    fn the_loss_identity_is_the_direct_residual() {
        for (pca, _, _, _, bits) in fitted() {
            let x = bits.to_features();
            let w = pca.components();
            let (d, p) = (w.rows(), w.cols());
            let weight = |i: usize, c: usize| f64::from(w.get(i, c));
            let direct: f64 = (0..x.rows())
                .map(|r| {
                    let centered: Vec<f64> = (0..d)
                        .map(|i| f64::from(x.get(r, i)) - f64::from(pca.mean[i]))
                        .collect();
                    let z: Vec<f64> = (0..p)
                        .map(|c| (0..d).map(|i| centered[i] * weight(i, c)).sum())
                        .collect();
                    (0..d)
                        .map(|i| {
                            let back: f64 = (0..p).map(|c| z[c] * weight(i, c)).sum();
                            (centered[i] - back).powi(2)
                        })
                        .sum::<f64>()
                })
                .sum::<f64>()
                / x.rows() as f64;
            let loss = f64::from(pca.reconstruction_error(&bits));
            assert!(
                (loss - direct).abs() < 1e-4 * direct,
                "p {}: {loss} vs {direct}",
                pca.p()
            );
        }
    }
}
