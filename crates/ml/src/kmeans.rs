//! K-means clustering with k-means++ initialization, Lloyd iterations,
//! SSE, and the elbow method for choosing K (paper §4.1.4, Eq. 1).

use crate::matrix::Matrix;
use crate::rng::weighted_index;
use rand::Rng;

/// A fitted K-means model: `k` centroids in feature space.
#[derive(Debug, Clone)]
pub struct KMeans {
    centroids: Matrix,
}

/// Result of one [`KMeans::fit`] call.
#[derive(Debug, Clone)]
pub struct KMeansFit {
    /// The fitted model.
    pub model: KMeans,
    /// Final cluster assignment of each training row.
    pub assignments: Vec<usize>,
    /// Final sum of squared errors (Eq. 1 of the paper).
    pub sse: f32,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

impl KMeans {
    /// Fit on `data` (rows = samples) with k-means++ seeding and at most
    /// `max_iters` Lloyd iterations (stops early on convergence).
    ///
    /// # Panics
    /// Panics if `k == 0` or `data` has no rows.
    #[allow(clippy::needless_range_loop)] // index style is clearer here
    pub fn fit<R: Rng>(data: &Matrix, k: usize, max_iters: usize, rng: &mut R) -> KMeansFit {
        assert!(k > 0, "KMeans: k must be >= 1");
        assert!(data.rows() > 0, "KMeans: empty data");
        let k = k.min(data.rows());
        let mut centroids = kmeans_pp_init(data, k, rng);
        let mut assignments = vec![0usize; data.rows()];
        let mut iterations = 0;
        for _ in 0..max_iters.max(1) {
            iterations += 1;
            // Assignment step.
            let mut changed = false;
            for r in 0..data.rows() {
                let c = nearest(&centroids, data.row(r)).0;
                if assignments[r] != c {
                    assignments[r] = c;
                    changed = true;
                }
            }
            // Update step.
            let mut sums = Matrix::zeros(k, data.cols());
            let mut counts = vec![0usize; k];
            for (r, &c) in assignments.iter().enumerate() {
                counts[c] += 1;
                for (s, v) in sums.row_mut(c).iter_mut().zip(data.row(r)) {
                    *s += v;
                }
            }
            for c in 0..k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at the point farthest from
                    // its centroid.
                    let far = (0..data.rows())
                        .max_by(|&a, &b| {
                            let da = dist2(centroids.row(assignments[a]), data.row(a));
                            let db = dist2(centroids.row(assignments[b]), data.row(b));
                            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .expect("data nonempty");
                    centroids.row_mut(c).copy_from_slice(data.row(far));
                    changed = true;
                } else {
                    let inv = 1.0 / counts[c] as f32;
                    for (dst, s) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                        *dst = s * inv;
                    }
                }
            }
            if !changed && iterations > 1 {
                break;
            }
        }
        let model = KMeans { centroids };
        let sse = model.sse(data);
        KMeansFit {
            model,
            assignments,
            sse,
            iterations,
        }
    }

    /// Construct directly from centroids (used by the joint trainer).
    pub fn from_centroids(centroids: Matrix) -> Self {
        Self { centroids }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    /// The centroid matrix (`k × dim`).
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// Nearest cluster for one sample.
    pub fn predict(&self, x: &[f32]) -> usize {
        nearest(&self.centroids, x).0
    }

    /// Nearest cluster and its squared distance.
    pub fn predict_with_distance(&self, x: &[f32]) -> (usize, f32) {
        nearest(&self.centroids, x)
    }

    /// Clusters ordered by distance from `x` (closest first) — the
    /// fallback order the dynamic address pool uses when a cluster's
    /// free list is empty. Equal distances keep cluster order, and a
    /// NaN distance comes after every number.
    pub fn clusters_by_distance(&self, x: &[f32]) -> Vec<usize> {
        let mut order: Vec<(usize, f32)> = (0..self.k())
            .map(|c| (c, dist2(self.centroids.row(c), x)))
            .collect();
        order.sort_by(|a, b| {
            (a.1.is_nan().cmp(&b.1.is_nan()))
                .then(a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        });
        order.into_iter().map(|(c, _)| c).collect()
    }

    /// Sum of squared errors of `data` under this model (Eq. 1).
    pub fn sse(&self, data: &Matrix) -> f32 {
        (0..data.rows())
            .map(|r| nearest(&self.centroids, data.row(r)).1)
            .sum()
    }
}

pub(crate) fn dist2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// The nearest centroid and its squared distance: the least
/// [`distance_key`], ties to the lower index — so the first cluster of
/// [`KMeans::clusters_by_distance`] and of the serving kernel's order,
/// NaN and infinite distances included (`(0, ∞)` without centroids).
fn nearest(centroids: &Matrix, x: &[f32]) -> (usize, f32) {
    let mut best = (0usize, f32::INFINITY, u32::MAX);
    for c in 0..centroids.rows() {
        let d = dist2(centroids.row(c), x);
        let key = distance_key(d);
        if c == 0 || key < best.2 {
            best = (c, d, key);
        }
    }
    (best.0, best.1)
}

/// `d` as a key whose unsigned order is the placement's distance order:
/// ascending, `-0.0` equal to `0.0`, NaN after every number (the
/// reference [`KMeans::clusters_by_distance`] puts it last too).
pub(crate) fn distance_key(d: f32) -> u32 {
    // Adding 0.0 turns -0.0 into 0.0 and leaves every other value as is.
    let bits = (d + 0.0).to_bits();
    let key = if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    if d.is_nan() {
        u32::MAX
    } else {
        key
    }
}

#[allow(clippy::needless_range_loop)] // index style is clearer here
fn kmeans_pp_init<R: Rng>(data: &Matrix, k: usize, rng: &mut R) -> Matrix {
    let n = data.rows();
    let mut centroids = Matrix::zeros(k, data.cols());
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(data.row(first));
    let mut d2: Vec<f32> = (0..n)
        .map(|r| dist2(data.row(r), centroids.row(0)))
        .collect();
    for c in 1..k {
        let pick = weighted_index(rng, &d2);
        centroids.row_mut(c).copy_from_slice(data.row(pick));
        for r in 0..n {
            let d = dist2(data.row(r), centroids.row(c));
            if d < d2[r] {
                d2[r] = d;
            }
        }
    }
    centroids
}

/// Pick the elbow of an SSE-vs-K curve by maximum distance to the chord
/// between the endpoints (the "knee" heuristic of the paper's §4.1.4).
/// `curve` is `(k, sse)` pairs sorted by increasing k; returns the k at
/// the elbow.
///
/// # Panics
/// Panics if `curve` is empty.
pub fn elbow_k(curve: &[(usize, f32)]) -> usize {
    assert!(!curve.is_empty(), "elbow_k: empty curve");
    if curve.len() < 3 {
        return curve[0].0;
    }
    let (x0, y0) = (curve[0].0 as f32, curve[0].1);
    let (x1, y1) = (curve[curve.len() - 1].0 as f32, curve[curve.len() - 1].1);
    // Normalize axes so the chord distance is scale-invariant.
    let dx = (x1 - x0).max(f32::EPSILON);
    let dy = (y0 - y1).max(f32::EPSILON);
    let mut best = (curve[0].0, f32::NEG_INFINITY);
    for &(k, sse) in curve {
        let nx = (k as f32 - x0) / dx;
        let ny = (sse - y1) / dy; // decreasing curve -> ny from 1 to 0
                                  // Distance from (nx, ny) to the line from (0,1) to (1,0):
                                  // |nx + ny - 1| / sqrt(2).
        let d = (1.0 - nx - ny).abs() / std::f32::consts::SQRT_2;
        if d > best.1 {
            best = (k, d);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    fn blobs(n_per: usize, centers: &[(f32, f32)], spread: f32, rng: &mut impl Rng) -> Matrix {
        let mut rows = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..n_per {
                rows.push(vec![
                    cx + crate::rng::normal(rng) * spread,
                    cy + crate::rng::normal(rng) * spread,
                ]);
            }
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let mut rng = seeded(1);
        let data = blobs(
            50,
            &[(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)],
            0.5,
            &mut rng,
        );
        let fit = KMeans::fit(&data, 3, 50, &mut rng);
        // All members of a ground-truth blob must share an assignment.
        for blob in 0..3 {
            let a0 = fit.assignments[blob * 50];
            for i in 0..50 {
                assert_eq!(fit.assignments[blob * 50 + i], a0, "blob {blob} split");
            }
        }
        // And the three blobs get three distinct clusters.
        let distinct: std::collections::HashSet<_> = [
            fit.assignments[0],
            fit.assignments[50],
            fit.assignments[100],
        ]
        .into_iter()
        .collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn sse_decreases_with_k() {
        let mut rng = seeded(2);
        let data = blobs(
            30,
            &[(0.0, 0.0), (5.0, 5.0), (9.0, 0.0), (0.0, 9.0)],
            1.0,
            &mut rng,
        );
        let mut prev = f32::INFINITY;
        for k in [1, 2, 4, 8] {
            let fit = KMeans::fit(&data, k, 50, &mut rng);
            assert!(
                fit.sse <= prev * 1.001,
                "k={k}: sse={} prev={prev}",
                fit.sse
            );
            prev = fit.sse;
        }
    }

    #[test]
    fn predict_matches_training_assignment() {
        let mut rng = seeded(3);
        let data = blobs(20, &[(0.0, 0.0), (8.0, 8.0)], 0.3, &mut rng);
        let fit = KMeans::fit(&data, 2, 50, &mut rng);
        for r in 0..data.rows() {
            assert_eq!(fit.model.predict(data.row(r)), fit.assignments[r]);
        }
    }

    #[test]
    fn clusters_by_distance_is_permutation_starting_with_nearest() {
        let mut rng = seeded(4);
        let data = blobs(20, &[(0.0, 0.0), (8.0, 8.0), (0.0, 8.0)], 0.3, &mut rng);
        let fit = KMeans::fit(&data, 3, 50, &mut rng);
        let order = fit.model.clusters_by_distance(&[0.0, 0.0]);
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], fit.model.predict(&[0.0, 0.0]));
        let set: std::collections::HashSet<_> = order.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn k_capped_at_sample_count() {
        let mut rng = seeded(5);
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
        let fit = KMeans::fit(&data, 10, 10, &mut rng);
        assert_eq!(fit.model.k(), 2);
    }

    #[test]
    fn elbow_finds_sharp_knee() {
        // Sharp knee at k=4.
        let curve: Vec<(usize, f32)> = vec![
            (1, 1000.0),
            (2, 700.0),
            (3, 420.0),
            (4, 120.0),
            (5, 100.0),
            (6, 90.0),
            (7, 85.0),
            (8, 82.0),
        ];
        assert_eq!(elbow_k(&curve), 4);
    }

    #[test]
    fn elbow_degenerate_curves() {
        assert_eq!(elbow_k(&[(3, 5.0)]), 3);
        assert_eq!(elbow_k(&[(1, 5.0), (2, 4.0)]), 1);
    }

    #[test]
    fn fit_is_deterministic_given_seed() {
        let mut r1 = seeded(9);
        let mut r2 = seeded(9);
        let data = blobs(20, &[(0.0, 0.0), (5.0, 5.0)], 0.5, &mut r1);
        let data2 = blobs(20, &[(0.0, 0.0), (5.0, 5.0)], 0.5, &mut r2);
        assert_eq!(data, data2);
        let f1 = KMeans::fit(&data, 2, 20, &mut r1);
        let f2 = KMeans::fit(&data2, 2, 20, &mut r2);
        assert_eq!(f1.assignments, f2.assignments);
    }
}
