//! Joint VAE + K-means training (DEC/IDEC-style), the heart of the
//! E2-NVM model (paper §3.2): "E2-NVM integrates the VAE's
//! reconstruction loss and the K-means clustering loss to jointly train
//! cluster label assignment and learning of suitable features for
//! clustering."
//!
//! Training proceeds in two phases:
//! 1. **Pretrain** the VAE on the raw bit features (ELBO only).
//! 2. **Joint fine-tune**: run K-means in latent space, then for a few
//!    epochs add the cluster-distance loss `γ · Σᵢ ‖zᵢ − μ_{c(i)}‖²` to
//!    the ELBO gradient, re-fitting centroids between epochs.
//!
//! The product is a [`ClusterModel`]: the whole VAE plus the K-means
//! centroids, and the batched `Matrix` reference the serving kernel is
//! held to. Serving reads only the encoder up to μ and the centroids,
//! the two artifacts the paper keeps ("After training, only the encoder
//! part of the VAE and the K-means clustering models are needed"):
//! [`ClusterModel::placer`] compiles them into a [`Placer`].

use crate::bits::BitMatrix;
use crate::kmeans::KMeans;
use crate::matrix::Matrix;
use crate::predict::Placer;
use crate::vae::{Vae, VaeConfig, VaeLosses};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the joint trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecConfig {
    /// VAE architecture and optimizer settings.
    pub vae: VaeConfig,
    /// Number of clusters K.
    pub k: usize,
    /// VAE pretraining epochs.
    pub pretrain_epochs: usize,
    /// Joint fine-tuning epochs.
    pub joint_epochs: usize,
    /// Weight γ of the cluster-distance loss during fine-tuning.
    pub gamma: f32,
    /// Mini-batch size.
    pub batch: usize,
    /// Lloyd iterations per K-means (re)fit.
    pub kmeans_iters: usize,
}

impl Default for DecConfig {
    fn default() -> Self {
        Self {
            vae: VaeConfig::default(),
            k: 10,
            pretrain_epochs: 20,
            joint_epochs: 10,
            gamma: 0.1,
            batch: 64,
            kmeans_iters: 25,
        }
    }
}

/// Loss trajectory of a training run (feeds the paper's Figure 9).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Per-epoch training losses (pretrain then joint epochs).
    pub train: Vec<VaeLosses>,
    /// Per-epoch validation losses (empty when no validation set given).
    pub validation: Vec<VaeLosses>,
    /// SSE in latent space after each K-means (re)fit.
    pub sse: Vec<f32>,
}

/// The trained model: the VAE and the K-means centroids.
#[derive(Debug, Clone)]
pub struct ClusterModel {
    vae: Vae,
    kmeans: KMeans,
}

impl ClusterModel {
    /// Train on `data` (rows = samples of packed bits), optionally
    /// tracking validation loss on `validation`.
    pub fn train<R: Rng>(
        cfg: &DecConfig,
        data: &BitMatrix,
        validation: Option<&BitMatrix>,
        rng: &mut R,
    ) -> (Self, TrainingHistory) {
        assert!(data.rows() > 0, "ClusterModel::train: empty data");
        let mut history = TrainingHistory::default();
        let mut vae = Vae::new(cfg.vae.clone(), rng);

        // Phase 1: ELBO-only pretraining.
        for _ in 0..cfg.pretrain_epochs {
            let l = vae.train_epoch(data, cfg.batch, rng);
            history.train.push(l);
            if let Some(v) = validation {
                history.validation.push(vae.evaluate(v));
            }
        }

        // Phase 2: joint fine-tuning.
        let z = vae.latent_bits(data);
        let mut fit = KMeans::fit(&z, cfg.k, cfg.kmeans_iters, rng);
        history.sse.push(fit.sse);
        for _ in 0..cfg.joint_epochs {
            let l = vae.train_epoch_with(data, cfg.batch, rng, |zb| {
                Some(cluster_pull(&fit.model, zb, cfg.gamma))
            });
            history.train.push(l);
            if let Some(v) = validation {
                history.validation.push(vae.evaluate(v));
            }
            let z = vae.latent_bits(data);
            fit = KMeans::fit(&z, cfg.k, cfg.kmeans_iters, rng);
            history.sse.push(fit.sse);
        }

        (
            Self {
                vae,
                kmeans: fit.model,
            },
            history,
        )
    }

    /// Predict clusters for a batch of samples.
    pub fn predict_batch(&self, data: &Matrix) -> Vec<usize> {
        let z = self.vae.latent(data);
        (0..z.rows())
            .map(|r| self.kmeans.predict(z.row(r)))
            .collect()
    }

    /// The underlying encoder-bearing VAE.
    pub fn vae(&self) -> &Vae {
        &self.vae
    }

    /// The underlying K-means model.
    pub fn kmeans(&self) -> &KMeans {
        &self.kmeans
    }

    /// The serving model: the encoder's layers with the last one cut to
    /// its μ columns (the log σ² columns and the decoder dropped), and
    /// the centroids.
    pub fn placer(&self) -> Placer {
        let latent = self.vae.config().latent_dim;
        let layers = self.vae.encoder().layers();
        let last = layers.len() - 1;
        let layers = layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let out = if i == last { latent } else { l.out_dim() };
                (
                    l.weights().cols_range(0, out),
                    l.bias()[..out].to_vec(),
                    l.activation(),
                )
            })
            .collect();
        Placer::new(layers, self.kmeans.clone()).expect("a trained model serves")
    }

    /// A model of a VAE and centroids in its latent space.
    #[cfg(test)]
    pub(crate) fn from_parts(vae: Vae, kmeans: KMeans) -> Self {
        assert_eq!(kmeans.centroids().cols(), vae.config().latent_dim);
        Self { vae, kmeans }
    }
}

/// The joint phase's cluster-loss gradient, `dL_cluster/dz = 2γ(z − μ_c)/n`
/// for each row of `zb` and its nearest centroid `μ_c` — the nearest as
/// serving picks it ([`KMeans::predict`]), so a centroid at a NaN
/// distance is never the one a row is pulled towards while another is
/// at a number.
fn cluster_pull(kmeans: &KMeans, zb: &Matrix, gamma: f32) -> Matrix {
    let n = zb.rows() as f32;
    let mut grad = Matrix::zeros(zb.rows(), zb.cols());
    for r in 0..zb.rows() {
        let mu = kmeans.centroids().row(kmeans.predict(zb.row(r)));
        for (g, (&zv, &mv)) in grad.row_mut(r).iter_mut().zip(zb.row(r).iter().zip(mu)) {
            *g = 2.0 * gamma * (zv - mv) / n;
        }
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::features_to_bytes;
    use crate::predict::PredictScratch;
    use crate::rng::seeded;
    use crate::vae::VaeConfig;

    /// Three bit-pattern classes with flip noise.
    fn three_class_bits(n_per: usize, dim: usize, rng: &mut impl Rng) -> (Matrix, Vec<usize>) {
        let templates: Vec<Vec<f32>> = (0..3)
            .map(|cls| {
                (0..dim)
                    .map(|d| if (d / 4) % 3 == cls { 1.0 } else { 0.0 })
                    .collect()
            })
            .collect();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (cls, t) in templates.iter().enumerate() {
            for _ in 0..n_per {
                rows.push(
                    t.iter()
                        .map(|&b| if rng.gen::<f32>() < 0.05 { 1.0 - b } else { b })
                        .collect(),
                );
                labels.push(cls);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    fn quick_cfg(dim: usize, k: usize) -> DecConfig {
        DecConfig {
            vae: VaeConfig {
                input_dim: dim,
                hidden: vec![32],
                latent_dim: 4,
                lr: 5e-3,
                beta: 0.2,
            },
            k,
            pretrain_epochs: 15,
            joint_epochs: 5,
            gamma: 0.2,
            batch: 32,
            kmeans_iters: 20,
        }
    }

    #[test]
    fn clusters_align_with_classes() {
        let mut rng = seeded(11);
        let (data, labels) = three_class_bits(60, 48, &mut rng);
        let bits = BitMatrix::from_features(&data);
        let (model, history) = ClusterModel::train(&quick_cfg(48, 3), &bits, None, &mut rng);
        let preds = model.predict_batch(&data);
        // Majority label purity: each ground-truth class should map
        // dominantly to one cluster.
        let mut purity_total = 0.0;
        for cls in 0..3 {
            let mut counts = [0usize; 3];
            for (p, &l) in preds.iter().zip(&labels) {
                if l == cls {
                    counts[*p] += 1;
                }
            }
            purity_total += *counts.iter().max().unwrap() as f32 / 60.0;
        }
        let purity = purity_total / 3.0;
        assert!(purity > 0.8, "purity={purity}");
        assert!(!history.train.is_empty());
        assert_eq!(history.train.len(), 20);
    }

    #[test]
    fn validation_history_tracked() {
        let mut rng = seeded(12);
        let (data, _) = three_class_bits(30, 32, &mut rng);
        let (val, _) = three_class_bits(10, 32, &mut rng);
        let mut cfg = quick_cfg(32, 3);
        cfg.pretrain_epochs = 4;
        cfg.joint_epochs = 2;
        let (data, val) = (
            BitMatrix::from_features(&data),
            BitMatrix::from_features(&val),
        );
        let (_, history) = ClusterModel::train(&cfg, &data, Some(&val), &mut rng);
        assert_eq!(history.validation.len(), 6);
        assert_eq!(history.sse.len(), 3);
    }

    #[test]
    fn predict_single_matches_batch() {
        let mut rng = seeded(13);
        let (data, _) = three_class_bits(20, 32, &mut rng);
        let mut cfg = quick_cfg(32, 3);
        cfg.pretrain_epochs = 3;
        cfg.joint_epochs = 1;
        let (model, _) =
            ClusterModel::train(&cfg, &BitMatrix::from_features(&data), None, &mut rng);
        let batch = model.predict_batch(&data);
        let (placer, mut scratch) = (model.placer(), PredictScratch::default());
        for (r, expected) in batch.iter().enumerate() {
            let bits = features_to_bytes(data.row(r));
            assert_eq!(placer.predict_packed(&bits, &mut scratch), *expected);
        }
    }

    #[test]
    fn joint_training_reduces_sse() {
        let mut rng = seeded(14);
        let (data, _) = three_class_bits(60, 48, &mut rng);
        let data = BitMatrix::from_features(&data);
        let (_, history) = ClusterModel::train(&quick_cfg(48, 3), &data, None, &mut rng);
        let first = history.sse.first().copied().unwrap();
        let last = history.sse.last().copied().unwrap();
        // The joint loss optimises recon + KL + gamma·cluster, not SSE
        // itself, so SSE can wobble across epochs; only a blow-up is a
        // bug.
        assert!(
            last <= first * 1.25,
            "joint epochs should not blow up SSE: first={first} last={last}"
        );
    }

    /// A centroid at a NaN distance is never the one a row is pulled
    /// towards while another is at a number — the cluster serving
    /// predicts, not the first of a `partial_cmp` comparator that
    /// holds NaN `Equal` to everything.
    #[test]
    fn cluster_pull_passes_over_a_nan_centroid() {
        let kmeans = KMeans::from_centroids(Matrix::from_rows(&[
            vec![f32::NAN, 0.0],
            vec![5.0, 5.0],
            vec![1.0, 1.0],
        ]));
        let zb = Matrix::from_rows(&[vec![0.0, 0.0], vec![4.0, 4.0]]);
        // 2γ/n = 0.5: row 0 towards centroid 2, row 1 towards centroid 1.
        let grad = cluster_pull(&kmeans, &zb, 0.5);
        assert_eq!(grad.row(0), [-0.5, -0.5]);
        assert_eq!(grad.row(1), [-0.5, -0.5]);
    }

    #[test]
    fn metadata_accessors() {
        let mut rng = seeded(15);
        let (data, _) = three_class_bits(10, 32, &mut rng);
        let mut cfg = quick_cfg(32, 3);
        cfg.pretrain_epochs = 1;
        cfg.joint_epochs = 1;
        let (model, _) =
            ClusterModel::train(&cfg, &BitMatrix::from_features(&data), None, &mut rng);
        let placer = model.placer();
        assert_eq!((placer.k(), placer.widths()), (3, vec![32, 32, 4]));
    }
}
