//! Principal Component Analysis via orthogonal (subspace) iteration.
//!
//! The PNW baseline (Kargar et al., ICDE '21) reduces dimensionality
//! with PCA before K-means; the paper's Figure 4 sweeps feature counts
//! up to 16384, so an explicit `d × d` covariance eigendecomposition is
//! not an option. Orthogonal iteration only touches the data through
//! products `X·B` and `Xᵀ·(X·B)` (cost `O(n·d·p)` per sweep), which
//! scales to the full sweep.
//!
//! A fitted PCA and the K-means fitted on its scores compile into a
//! [`Placer`] ([`Pca::placer`]), so PNW is served by the same kernel
//! and the same address pool as the VAE.

use crate::activation::Activation;
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
    /// Fit the top `p` components of `data` (rows = samples) with
    /// `sweeps` orthogonal-iteration rounds (8–15 is plenty for the
    /// well-separated spectra of bit-pattern data).
    ///
    /// # Panics
    /// Panics if `data` is empty or `p == 0`.
    pub fn fit<R: Rng>(data: &Matrix, p: usize, sweeps: usize, rng: &mut R) -> Self {
        assert!(data.rows() > 0, "Pca::fit: empty data");
        assert!(p > 0, "Pca::fit: zero components");
        let d = data.cols();
        let p = p.min(d).min(data.rows());
        let mean = data.col_means();

        // Centered copy once; memory is n*d floats, same as input.
        let mut centered = data.clone();
        for r in 0..centered.rows() {
            for (v, m) in centered.row_mut(r).iter_mut().zip(&mean) {
                *v -= m;
            }
        }

        let mut b = Matrix::zeros(d, p);
        rng::fill_normal(rng, b.as_mut_slice(), 1.0);
        orthonormalize(&mut b);
        for _ in 0..sweeps.max(1) {
            // B <- Xᵀ(X B); covariance scaling is irrelevant to the
            // direction iteration.
            let xb = centered.matmul(&b);
            b = centered.t_matmul(&xb);
            orthonormalize(&mut b);
        }
        Self {
            mean,
            components: b,
        }
    }

    /// Number of components.
    pub fn p(&self) -> usize {
        self.components.cols()
    }

    /// Project a batch into the component space (`n × p` scores).
    pub fn transform(&self, data: &Matrix) -> Matrix {
        assert_eq!(data.cols(), self.mean.len(), "Pca::transform: wrong dim");
        let mut centered = data.clone();
        for r in 0..centered.rows() {
            for (v, m) in centered.row_mut(r).iter_mut().zip(&self.mean) {
                *v -= m;
            }
        }
        centered.matmul(&self.components)
    }

    /// The component matrix (`d × p`).
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Compile the projection and `kmeans`, fitted on its scores, into
    /// a [`Placer`] of one [`Activation::Linear`] layer: weights `W` =
    /// the components, bias `b = −mean·W`. A segment's bits `x` land at
    /// `x·W + b`, which the placer computes under the summation-order
    /// contract of the [`crate::predict`] module: its clusters are
    /// `kmeans`' order of the `Matrix` path's `x·W + b`, bit for bit.
    /// They equal [`Pca::transform`]'s `(x − mean)·W` followed by
    /// `kmeans` only up to rounding, since `f32` does not distribute.
    ///
    /// # Panics
    /// Panics unless the PCA was fitted on a whole number of bytes of
    /// bit features and `kmeans`' centroids have one column per
    /// component.
    pub fn placer(&self, kmeans: KMeans) -> Placer {
        let mean = Matrix::from_vec(1, self.mean.len(), self.mean.clone());
        let bias = mean
            .matmul(&self.components)
            .as_slice()
            .iter()
            .map(|v| -v)
            .collect();
        let layer = (self.components.clone(), bias, Activation::Linear);
        Placer::new(vec![layer], kmeans).unwrap_or_else(|e| panic!("Pca::placer: {e}"))
    }
}

/// Gram–Schmidt orthonormalization of the columns of `b`, in place.
fn orthonormalize(b: &mut Matrix) {
    let (d, p) = (b.rows(), b.cols());
    for j in 0..p {
        // Subtract projections onto previous columns.
        for prev in 0..j {
            let dot: f32 = (0..d).map(|r| b.get(r, j) * b.get(r, prev)).sum();
            for r in 0..d {
                let v = b.get(r, j) - dot * b.get(r, prev);
                b.set(r, j, v);
            }
        }
        let norm: f32 = (0..d).map(|r| b.get(r, j).powi(2)).sum::<f32>().sqrt();
        if norm > f32::EPSILON {
            for r in 0..d {
                b.set(r, j, b.get(r, j) / norm);
            }
        } else {
            // Degenerate column: reset to a unit basis vector.
            for r in 0..d {
                b.set(r, j, if r == j % d { 1.0 } else { 0.0 });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::segments_to_matrix;
    use crate::kernel::Kernel;
    use crate::persist::Persist;
    use crate::predict::PredictScratch;
    use crate::rng::seeded;

    /// Data spread along a known direction plus small noise.
    fn line_data(n: usize, dir: &[f32], rng: &mut impl Rng) -> Matrix {
        let d = dir.len();
        Matrix::from_fn(n, d, |r, c| {
            let t = (r as f32 / n as f32 - 0.5) * 20.0;
            t * dir[c] + rng::normal(rng) * 0.05 + 3.0
        })
    }

    #[test]
    fn recovers_dominant_direction() {
        let mut rng = seeded(1);
        let dir = [0.6f32, 0.8, 0.0, 0.0];
        let data = line_data(200, &dir, &mut rng);
        let pca = Pca::fit(&data, 1, 12, &mut rng);
        let c: Vec<f32> = (0..4).map(|r| pca.components().get(r, 0)).collect();
        // Component equals ±dir.
        let dot: f32 = c.iter().zip(&dir).map(|(a, b)| a * b).sum();
        assert!(dot.abs() > 0.99, "dot={dot} c={c:?}");
    }

    #[test]
    fn components_are_orthonormal() {
        let mut rng = seeded(2);
        let data = Matrix::from_fn(100, 8, |r, c| {
            ((r * 7 + c * 3) % 13) as f32 + rng::normal(&mut rng)
        });
        let pca = Pca::fit(&data, 3, 10, &mut rng);
        let b = pca.components();
        for i in 0..3 {
            for j in 0..3 {
                let dot: f32 = (0..8).map(|r| b.get(r, i) * b.get(r, j)).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-4, "B[{i}]·B[{j}]={dot}");
            }
        }
    }

    #[test]
    fn transform_centers_data() {
        let mut rng = seeded(3);
        let data = line_data(100, &[1.0, 0.0], &mut rng);
        let pca = Pca::fit(&data, 1, 10, &mut rng);
        let scores = pca.transform(&data);
        let mean: f32 = scores.as_slice().iter().sum::<f32>() / scores.rows() as f32;
        assert!(mean.abs() < 0.1, "scores not centered: {mean}");
    }

    #[test]
    fn p_capped_by_dims() {
        let mut rng = seeded(5);
        let data = Matrix::from_fn(10, 3, |r, c| (r + c) as f32);
        let pca = Pca::fit(&data, 99, 5, &mut rng);
        assert_eq!(pca.p(), 3);
    }

    #[test]
    fn projection_preserves_variance_better_than_random() {
        let mut rng = seeded(6);
        let dir = [0.5f32, 0.5, 0.5, 0.5];
        let data = line_data(200, &dir, &mut rng);
        let pca = Pca::fit(&data, 1, 12, &mut rng);
        let scores = pca.transform(&data);
        let var: f32 = scores.as_slice().iter().map(|v| v * v).sum::<f32>() / 200.0;
        // Total variance is ~ (spread of t) * |dir|²; the top component
        // must capture nearly all of it.
        assert!(var > 30.0, "captured var={var}");
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
    /// training rows and as many fresh ones) packed and as features.
    fn fitted() -> impl Iterator<Item = (Pca, KMeans, Placer, Vec<Vec<u8>>, Matrix)> {
        [1, 12, 16].into_iter().flat_map(|p| {
            [1, 3, 10].into_iter().map(move |k| {
                let mut rng = seeded(0x9CA ^ (p * 31 + k) as u64);
                let mut segments = bit_rows(96, &mut rng);
                let features = segments_to_matrix(&segments);
                let pca = Pca::fit(&features, p, 10, &mut rng);
                let kmeans = KMeans::fit(&pca.transform(&features), k, 30, &mut rng).model;
                let placer = pca.placer(kmeans.clone());
                segments.extend(bit_rows(96, &mut rng));
                let features = segments_to_matrix(&segments);
                (pca, kmeans, placer, segments, features)
            })
        })
    }

    /// `x·W + b` on the `Matrix` path: the product, then the bias.
    fn matrix_path(placer: &Placer, pca: &Pca, features: &Matrix) -> Matrix {
        let mut z = features.matmul(pca.components());
        z.add_row_broadcast(&placer.layers[0].bias);
        z
    }

    /// The compiled placer's order is `KMeans`' order of the `Matrix`
    /// path's `x·W + b` to the bit, on every instantiation of the
    /// kernel this CPU runs — and its nearest cluster the order's first.
    #[test]
    fn placer_orders_as_the_matrix_path_exactly() {
        for (pca, kmeans, placer, segments, features) in fitted() {
            let z = matrix_path(&placer, &pca, &features);
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

    /// The compiled μ is the PCA's score up to rounding: `x·W − mean·W`
    /// and `(x − mean)·W` differ only in where `f32` rounds.
    #[test]
    fn placer_latent_is_the_transform_up_to_rounding() {
        for (pca, _, placer, _, features) in fitted() {
            let z = matrix_path(&placer, &pca, &features);
            let scores = pca.transform(&features);
            for (a, b) in z.as_slice().iter().zip(scores.as_slice()) {
                assert!((a - b).abs() < 1e-4, "p {}: {a} vs {b}", pca.p());
            }
        }
    }
}
