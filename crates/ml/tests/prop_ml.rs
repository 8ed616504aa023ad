//! Property tests for the ML substrate: linear-algebra identities,
//! K-means invariants, and encoding round-trips.

use e2nvm_ml::kmeans::KMeans;
use e2nvm_ml::matrix::Matrix;
use e2nvm_ml::rng::seeded;
use e2nvm_ml::vae::VaeConfig;
use e2nvm_ml::{data, BitMatrix, ClusterModel, DecConfig, Pca, Placer, PredictScratch};
use proptest::prelude::*;
use rand::Rng;
use std::sync::OnceLock;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Ordinary values of both signs, and the exact zeros of both signs
/// that a ReLU gradient is full of.
fn signed_or_zero() -> impl Strategy<Value = f32> {
    prop_oneof![-10.0f32..10.0, -10.0f32..10.0, Just(0.0f32), Just(-0.0f32)]
}

/// Segment width of [`resume_models`]: not a whole number of 64-bit
/// words.
const SEG: usize = 20;

/// Briefly trained models with no, one and two hidden encoder layers.
fn resume_models() -> &'static [Placer] {
    static MODELS: OnceLock<Vec<Placer>> = OnceLock::new();
    MODELS.get_or_init(|| {
        [&[][..], &[24], &[24, 12]]
            .iter()
            .map(|hidden| {
                let mut rng = seeded(0x7A11);
                let samples: Vec<Vec<u8>> = (0..64)
                    .map(|_| (0..SEG).map(|_| rng.gen()).collect())
                    .collect();
                let cfg = DecConfig {
                    vae: VaeConfig {
                        input_dim: SEG * 8,
                        hidden: hidden.to_vec(),
                        latent_dim: 5,
                        lr: 5e-3,
                        beta: 0.2,
                    },
                    k: 6,
                    pretrain_epochs: 2,
                    joint_epochs: 1,
                    batch: 16,
                    ..DecConfig::default()
                };
                ClusterModel::train(&cfg, &BitMatrix::from_segments(&samples), None, &mut rng)
                    .0
                    .placer()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A write leaves `value` over the head of a segment and the old
    /// content behind it: classifying that by resuming the placement's
    /// call (the value zero-padded at the end) over the tail alone is
    /// the full call's cluster, wherever the split falls.
    #[test]
    fn resumed_prediction_is_the_full_prediction(
        old in proptest::collection::vec(any::<u8>(), SEG),
        value in proptest::collection::vec(any::<u8>(), 0..SEG + 1),
        sparse in any::<bool>(),
    ) {
        // Sparse content puts the decision near a cluster boundary
        // more often than uniform noise does.
        let thin = |b: &u8| if sparse { b & (b >> 3) & 0x11 } else { *b };
        let mut segment: Vec<u8> = old.iter().map(thin).collect();
        segment[..value.len()].copy_from_slice(&value);
        let mut padded = value.clone();
        padded.resize(SEG, 0);
        for model in resume_models() {
            let mut scratch = PredictScratch::default();
            let placed = model.order_packed(&padded, &mut scratch)[0];
            prop_assert_eq!(placed, model.predict_packed(&padded, &mut PredictScratch::default()));
            let resumed = model.resume_packed(&segment, value.len(), &mut scratch);
            let full = model.predict_packed(&segment, &mut PredictScratch::default());
            prop_assert_eq!(resumed, full, "split at byte {}", value.len());
        }
    }

    /// (A·B)ᵀ == Bᵀ·Aᵀ.
    #[test]
    fn matmul_transpose_identity(a in matrix(3, 4), b in matrix(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Fused-transpose products match materialized transposes, and
    /// `matmul_t` is bit for bit the ascending-`k` fold from `+0.0` of
    /// each element — the order training's weights depend on, whichever
    /// loop the kernel makes innermost — at row counts that make whole
    /// row blocks and remainders, and at the layers' output widths.
    #[test]
    fn fused_transpose_products(
        a in matrix(4, 3),
        b in matrix(4, 5),
        rows in 0usize..=9,
        long in 2usize..12,
        vals in proptest::collection::vec(signed_or_zero(), (9 + 1024) * 11),
    ) {
        let fused = a.t_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        for (x, y) in fused.as_slice().iter().zip(explicit.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
        let (left, right) = vals.split_at(9 * 11);
        for k in [0, 1, long] {
            for width in [1, 3, 4, 5, 64, 67, 128, 1024] {
                let a = Matrix::from_vec(rows, k, left[..rows * k].to_vec());
                let c = Matrix::from_vec(width, k, right[..width * k].to_vec());
                let fused2 = a.matmul_t(&c);
                prop_assert_eq!((fused2.rows(), fused2.cols()), (rows, width));
                for i in 0..rows {
                    for j in 0..width {
                        let fold = (a.row(i).iter().zip(c.row(j)))
                            .fold(0.0f32, |acc, (&x, &y)| acc + x * y);
                        prop_assert_eq!(
                            fused2.get(i, j).to_bits(),
                            fold.to_bits(),
                            "element ({}, {}) of {}x{} · ({}x{})ᵀ: {} vs fold {}",
                            i, j, rows, k, width, k, fused2.get(i, j), fold
                        );
                    }
                }
            }
        }
    }

    /// Matrix multiplication distributes over addition.
    #[test]
    fn matmul_distributive(a in matrix(2, 3), b in matrix(3, 2), c in matrix(3, 2)) {
        let mut bc = b.clone();
        bc.add_assign(&c);
        let left = a.matmul(&bc);
        let mut right = a.matmul(&b);
        right.add_assign(&a.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2);
        }
    }

    /// K-means: every point's assigned centroid is its nearest; SSE is
    /// the sum of those distances.
    #[test]
    fn kmeans_assignment_optimality(
        rows in proptest::collection::vec(
            proptest::collection::vec(-5.0f32..5.0, 3), 4..40),
        k in 1usize..5,
    ) {
        let data = Matrix::from_rows(&rows);
        let mut rng = seeded(7);
        let fit = KMeans::fit(&data, k, 30, &mut rng);
        let mut sse = 0.0f32;
        for r in 0..data.rows() {
            let (best, d) = fit.model.predict_with_distance(data.row(r));
            // Assigned cluster must not be farther than the best.
            let assigned_d: f32 = fit.model.centroids().row(fit.assignments[r])
                .iter().zip(data.row(r)).map(|(&a, &b)| (a - b) * (a - b)).sum();
            prop_assert!(assigned_d <= d + 1e-3,
                "row {r}: assigned {assigned_d} vs best {d} (cluster {best})");
            sse += d;
        }
        prop_assert!((sse - fit.sse).abs() < sse.abs().max(1.0) * 1e-3);
    }

    /// bytes -> features -> bytes round-trips.
    #[test]
    fn feature_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 1..64)) {
        let feats = data::bytes_to_features(&bytes);
        prop_assert_eq!(feats.len(), bytes.len() * 8);
        prop_assert_eq!(data::features_to_bytes(&feats), bytes);
    }

    /// PCA transform output has the requested width and finite values.
    #[test]
    fn pca_output_finite(
        rows in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 2), 8..32),
        p in 1usize..4,
    ) {
        let data = BitMatrix::from_segments(&rows);
        let mut rng = seeded(11);
        let pca = Pca::fit(&data, p, 8, &mut rng);
        let scores = pca.transform(&data);
        prop_assert_eq!(scores.cols(), p);
        prop_assert!(scores.as_slice().iter().all(|v| v.is_finite()));
        prop_assert!(pca.reconstruction_error(&data).is_finite());
    }
}
