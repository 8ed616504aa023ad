//! K-means clustering with k-means++ initialization, Lloyd iterations,
//! SSE, and the elbow method for choosing K (paper §4.1.4, Eq. 1).
//!
//! Lane clause: every question about the clusters of one sample —
//! nearest, nearest with its distance, the fallback order — is answered
//! by one scorer (`Lanes`) that takes the centroids dimension-major in
//! blocks of sixteen clusters, one cluster per lane. Each lane
//! folds `(c_d − x_d)²` over ascending `d` from the `-0.0` that `f32`'s
//! `Sum` starts at: the additions of `dist2`, in its order, so every
//! distance is its value bit for bit. A distance then becomes a
//! `distance_key` with the cluster index below it; the nearest cluster
//! is the least key, and the order ranks the keys — ascending distance,
//! ties to the lower index, NaN after every number. Serving
//! ([`crate::predict`]) and training (Lloyd's assignment, the SSE, the
//! joint phase's pull towards the nearest centroid) ask the same
//! scorer. The blocks are derived from the centroids wherever a
//! [`KMeans`] is built, never per call and never persisted.

use crate::kernel::{Kernel, Op};
use crate::matrix::Matrix;
use crate::rng::weighted_index;
use rand::Rng;

/// A fitted K-means model: `k` centroids in feature space.
#[derive(Debug, Clone)]
pub struct KMeans {
    centroids: Matrix,
    /// The centroids as the scorer reads them.
    lanes: Lanes,
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
        let kernel = Kernel::detect();
        let mut centroids = kmeans_pp_init(data, k, rng);
        let mut assignments = vec![0usize; data.rows()];
        let mut iterations = 0;
        for _ in 0..max_iters.max(1) {
            iterations += 1;
            // Assignment step.
            let lanes = Lanes::new(&centroids);
            let mut changed = false;
            for r in 0..data.rows() {
                let c = lanes.nearest(kernel, data.row(r)).0;
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
        let model = KMeans::from_centroids(centroids);
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
        let lanes = Lanes::new(&centroids);
        Self { centroids, lanes }
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
        self.lanes.nearest(Kernel::detect(), x).0
    }

    /// Nearest cluster and its squared distance.
    pub fn predict_with_distance(&self, x: &[f32]) -> (usize, f32) {
        self.lanes.nearest(Kernel::detect(), x)
    }

    /// Clusters ordered by distance from `x` (closest first) — the
    /// fallback order the dynamic address pool uses when a cluster's
    /// free list is empty. Equal distances keep cluster order, and a
    /// NaN distance comes after every number.
    pub fn clusters_by_distance(&self, x: &[f32]) -> Vec<usize> {
        let (mut keys, mut order) = (Vec::new(), Vec::new());
        self.lanes.order(Kernel::detect(), x, &mut keys, &mut order);
        order
    }

    /// Sum of squared errors of `data` under this model (Eq. 1).
    pub fn sse(&self, data: &Matrix) -> f32 {
        let kernel = Kernel::detect();
        (0..data.rows())
            .map(|r| self.lanes.nearest(kernel, data.row(r)).1)
            .sum()
    }

    /// The scorer over this model's centroids.
    pub(crate) fn lanes(&self) -> &Lanes {
        &self.lanes
    }
}

pub(crate) fn dist2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Clusters per block of [`Lanes`]: sixteen `f32` lanes, one `zmm` or
/// two `ymm` registers of sums.
const LANE_BLOCK: usize = 16;

/// The key of a lane past the last cluster: above every cluster's key,
/// so it is never the nearest and never ranks before a cluster.
const NO_CLUSTER: u64 = u64::MAX;

/// A model's centroids as the lane clause's scorer reads them:
/// dimension-major blocks of [`LANE_BLOCK`] clusters, where
/// `coords[b * dim + d][l]` is coordinate `d` of cluster
/// `b * LANE_BLOCK + l`. Lanes past the last cluster hold `0.0` and
/// score [`NO_CLUSTER`].
#[derive(Debug, Clone)]
pub(crate) struct Lanes {
    k: usize,
    dim: usize,
    coords: Vec<[f32; LANE_BLOCK]>,
}

impl Lanes {
    fn new(centroids: &Matrix) -> Self {
        let (k, dim) = (centroids.rows(), centroids.cols());
        let mut coords = vec![[0.0; LANE_BLOCK]; k.div_ceil(LANE_BLOCK) * dim];
        for c in 0..k {
            let (block, lane) = (c / LANE_BLOCK, c % LANE_BLOCK);
            for (d, &v) in centroids.row(c).iter().enumerate() {
                coords[block * dim + d][lane] = v;
            }
        }
        Lanes { k, dim, coords }
    }

    /// The nearest cluster and its squared distance: the least key —
    /// the first cluster of [`Lanes::order`] — with `(0, ∞)` when there
    /// are no clusters.
    pub(crate) fn nearest(&self, kernel: Kernel, x: &[f32]) -> (usize, f32) {
        kernel.run(Nearest { lanes: self, x })
    }

    /// Every cluster, nearest first, into `order`; `keys` is working
    /// memory (one key per lane). Neither allocates once both have
    /// grown to this model's blocks.
    pub(crate) fn order(
        &self,
        kernel: Kernel,
        x: &[f32],
        keys: &mut Vec<u64>,
        order: &mut Vec<usize>,
    ) {
        kernel.run(Order {
            lanes: self,
            x,
            keys,
            order,
        });
    }

    /// Grow `keys` and `order` to what [`Lanes::order`] fills for this
    /// model, so that a first ranking on them allocates nothing either.
    pub(crate) fn reserve(&self, keys: &mut Vec<u64>, order: &mut Vec<usize>) {
        let lanes = self.blocks() * LANE_BLOCK;
        keys.reserve(lanes.saturating_sub(keys.len()));
        order.reserve(self.k.saturating_sub(order.len()));
    }

    /// Block `b`'s sums: each lane's `(c_d − x_d)²` folded over
    /// ascending `d` from `-0.0`, [`dist2`]'s additions in its order.
    #[inline(always)]
    fn sums(&self, b: usize, x: &[f32]) -> [f32; LANE_BLOCK] {
        assert_eq!(x.len(), self.dim, "a {}-wide sample", self.dim);
        let block = &self.coords[b * self.dim..(b + 1) * self.dim];
        let mut sums = [-0.0f32; LANE_BLOCK];
        for (coords, &xd) in block.iter().zip(x) {
            for (sum, &c) in sums.iter_mut().zip(coords) {
                let t = c - xd;
                *sum += t * t;
            }
        }
        sums
    }

    /// Block `b`'s keys: each lane's [`distance_key`] above its cluster
    /// index, unique and in the placement's order.
    #[inline(always)]
    fn keys(&self, b: usize, sums: &[f32; LANE_BLOCK]) -> [u64; LANE_BLOCK] {
        let mut keys = [NO_CLUSTER; LANE_BLOCK];
        for (lane, (key, &d)) in keys.iter_mut().zip(sums).enumerate() {
            let c = b * LANE_BLOCK + lane;
            let own = u64::from(distance_key(d)) << 32 | c as u64;
            *key = if c < self.k { own } else { NO_CLUSTER };
        }
        keys
    }

    fn blocks(&self) -> usize {
        self.k.div_ceil(LANE_BLOCK)
    }
}

/// [`Lanes::nearest`]'s loop.
struct Nearest<'a> {
    lanes: &'a Lanes,
    x: &'a [f32],
}

impl Op for Nearest<'_> {
    type Out = (usize, f32);

    #[inline(always)]
    fn run<const BLOCK: usize, const WIDE: usize, const LANES: usize>(self) -> (usize, f32) {
        let Nearest { lanes, x } = self;
        let mut best = (NO_CLUSTER, f32::INFINITY);
        for b in 0..lanes.blocks() {
            let sums = lanes.sums(b, x);
            let keys = lanes.keys(b, &sums);
            let least = keys.iter().fold(NO_CLUSTER, |m, &key| m.min(key));
            if least < best.0 {
                let lane = (least & 0xFFFF_FFFF) as usize - b * LANE_BLOCK;
                best = (least, sums[lane]);
            }
        }
        match best {
            (NO_CLUSTER, _) => (0, f32::INFINITY),
            (key, d) => ((key & 0xFFFF_FFFF) as usize, d),
        }
    }
}

/// [`Lanes::order`]'s loop.
struct Order<'a> {
    lanes: &'a Lanes,
    x: &'a [f32],
    keys: &'a mut Vec<u64>,
    order: &'a mut Vec<usize>,
}

impl Op for Order<'_> {
    type Out = ();

    /// Each cluster's place is the number of keys below its own:
    /// (distance, index) order with no comparator and no data-dependent
    /// branch. A block's lanes count at once, one key of the model
    /// after another.
    #[inline(always)]
    fn run<const BLOCK: usize, const WIDE: usize, const LANES: usize>(self) {
        let Order {
            lanes,
            x,
            keys,
            order,
        } = self;
        keys.clear();
        for b in 0..lanes.blocks() {
            let sums = lanes.sums(b, x);
            keys.extend_from_slice(&lanes.keys(b, &sums));
        }
        order.clear();
        order.resize(lanes.k, 0);
        for (b, own) in keys.chunks_exact(LANE_BLOCK).enumerate() {
            let own: &[u64; LANE_BLOCK] = own.try_into().expect("a block of keys");
            let mut places = [0u64; LANE_BLOCK];
            for &key in &keys[..lanes.k] {
                for (place, &own) in places.iter_mut().zip(own) {
                    *place += u64::from(key < own);
                }
            }
            let clusters = b * LANE_BLOCK..lanes.k.min((b + 1) * LANE_BLOCK);
            for (c, &place) in clusters.zip(&places) {
                order[place as usize] = c;
            }
        }
    }
}

/// `d` as a key whose unsigned order is the placement's distance order:
/// ascending, `-0.0` equal to `0.0`, NaN after every number. Integer
/// operations on the bits and no branch, so lanes of keys vectorise.
pub(crate) fn distance_key(d: f32) -> u32 {
    // Adding 0.0 turns -0.0 into 0.0 and leaves every other value as is.
    let bits = (d + 0.0).to_bits();
    // A negative value's bits are all flipped, any other's sign bit set.
    let flip = ((bits as i32) >> 31) as u32 | 1 << 31;
    // All ones for a NaN: an exponent of all ones and a mantissa.
    let nan = u32::from(bits & 0x7FFF_FFFF > 0x7F80_0000).wrapping_neg();
    (bits ^ flip) | nan
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
    use proptest::prelude::*;

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

    /// The order the lane scorer replaced: `dist2` per cluster, then a
    /// stable sort by distance with NaN last — kept as its reference.
    fn reference_order(centroids: &Matrix, x: &[f32]) -> Vec<usize> {
        let mut order: Vec<(usize, f32)> = (0..centroids.rows())
            .map(|c| (c, dist2(centroids.row(c), x)))
            .collect();
        order.sort_by(|a, b| {
            (a.1.is_nan().cmp(&b.1.is_nan()))
                .then(a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        });
        order.into_iter().map(|(c, _)| c).collect()
    }

    /// Every lane's sum, blocks in order, as `kernel` computes them.
    struct AllSums<'a> {
        lanes: &'a Lanes,
        x: &'a [f32],
    }

    impl Op for AllSums<'_> {
        type Out = Vec<f32>;

        fn run<const BLOCK: usize, const WIDE: usize, const LANES: usize>(self) -> Vec<f32> {
            (0..self.lanes.blocks())
                .flat_map(|b| self.lanes.sums(b, self.x))
                .collect()
        }
    }

    /// Mostly ordinary values; otherwise a zero of either sign, a
    /// subnormal, an infinity, NaN or `f32::MAX`, of either sign.
    fn awkward(rng: &mut impl Rng, rare: usize) -> f32 {
        let magnitude = match rng.gen_range(0..rare + 6) {
            0 => 0.0,
            1 => f32::from_bits(rng.gen_range(1..0x0080_0000)),
            2 => f32::INFINITY,
            3 => f32::NAN,
            4 => f32::MAX,
            5 => rng.gen_range(0.0f32..1e-20),
            _ => rng.gen_range(0.0f32..4.0),
        };
        if rng.gen() {
            -magnitude
        } else {
            magnitude
        }
    }

    /// The same distance: bit for bit, except that any NaN equals any
    /// NaN — Rust leaves open which NaN an operation on NaNs returns,
    /// and every NaN is one [`distance_key`].
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The lane clause: on every instantiation, at every cluster
        /// count — one block, under and over one, two blocks — each
        /// lane's distance is `dist2`'s, the nearest is the first of
        /// the order with `dist2`'s distance, and the order is the
        /// reference's sort, whatever mix of zeros, subnormals,
        /// infinities, NaN and `f32::MAX` the centroids and the sample
        /// hold, twins included.
        #[test]
        fn the_lanes_score_as_dist2_to_the_bit(
            dim in 1usize..=20,
            seed in any::<u64>(),
        ) {
            let mut rng = seeded(seed);
            for k in [1, 9, 10, 16, 17, 30] {
                let mut centroids = Matrix::from_fn(k, dim, |_, _| awkward(&mut rng, 3 * dim));
                if k > 2 {
                    let twin = centroids.row(1).to_vec();
                    centroids.row_mut(k - 1).copy_from_slice(&twin);
                }
                let model = KMeans::from_centroids(centroids.clone());
                for _ in 0..8 {
                    let x: Vec<f32> = (0..dim).map(|_| awkward(&mut rng, 12 * dim)).collect();
                    let order = reference_order(&centroids, &x);
                    for kernel in Kernel::instantiations() {
                        let name = kernel.name();
                        let sums = kernel.run(AllSums { lanes: model.lanes(), x: &x });
                        for (c, &sum) in sums[..k].iter().enumerate() {
                            let d = dist2(centroids.row(c), &x);
                            prop_assert!(same(sum, d), "k {k}, cluster {c}: {sum} vs {d}, {name}");
                        }
                        let (nearest, d) = model.lanes().nearest(kernel, &x);
                        prop_assert_eq!(nearest, order[0], "k {k}, {name}");
                        prop_assert!(same(d, dist2(centroids.row(nearest), &x)), "k {k}, {name}");
                        let (mut keys, mut got) = (Vec::new(), Vec::new());
                        model.lanes().order(kernel, &x, &mut keys, &mut got);
                        prop_assert_eq!(&got, &order, "k {k}, {name}");
                    }
                    prop_assert_eq!(model.clusters_by_distance(&x), order.clone());
                    prop_assert_eq!(model.predict(&x), order[0]);
                }
            }
        }
    }

    #[test]
    fn no_clusters_score_nothing() {
        let model = KMeans::from_centroids(Matrix::zeros(0, 3));
        assert_eq!(
            model.predict_with_distance(&[1.0, 2.0, 3.0]),
            (0, f32::INFINITY)
        );
        assert!(model.clusters_by_distance(&[1.0, 2.0, 3.0]).is_empty());
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
