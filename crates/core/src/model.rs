//! The E2-NVM model: the trained encoder up to μ + the K-means
//! centroids (a [`Placer`]), with byte-level prediction helpers that
//! route values through the padder.

use crate::config::E2Config;
use crate::padding::Padder;
use e2nvm_ml::data::{features_to_bytes, subsample_segments, train_val_split};
use e2nvm_ml::persist::{Persist, PersistError};
use e2nvm_ml::{BitMatrix, ClusterModel, Placer, PredictScratch, TrainingHistory};
use rand::Rng;

/// Caller-owned buffers of the serving path ([`E2Model::order_into`],
/// [`E2Model::classify`]): the padded model input as packed bits
/// and the prediction kernel's working memory. One per engine, reused
/// for every placement and recycle.
#[derive(Debug, Default)]
pub struct PlacementScratch {
    padded: Vec<u8>,
    predict: PredictScratch,
}

/// A trained placement model: what serving reads, and the loss curves
/// of the training run that made it.
#[derive(Debug, Clone)]
pub struct E2Model {
    placer: Placer,
    history: TrainingHistory,
}

impl E2Model {
    /// Train on a snapshot of memory-segment contents, handed to the
    /// trainer as packed rows of bits. Honors the config's
    /// `train_sample_cap` and holds out 10 % for validation loss
    /// curves.
    ///
    /// # Panics
    /// Panics if `contents` is empty or segment sizes disagree with the
    /// config.
    pub fn train<R: Rng>(cfg: &E2Config, contents: &[Vec<u8>], rng: &mut R) -> Self {
        assert!(!contents.is_empty(), "E2Model::train: no training data");
        assert!(
            contents.iter().all(|c| c.len() == cfg.segment_bytes),
            "E2Model::train: contents must be whole segments"
        );
        let capped = subsample_segments(contents, cfg.train_sample_cap, rng);
        let (train, val) = train_val_split(&capped, 0.1, rng);
        let val_opt: Option<&BitMatrix> = (val.rows() > 0).then_some(&val);
        let (cluster, history) = ClusterModel::train(&cfg.dec_config(), &train, val_opt, rng);
        Self {
            placer: cluster.placer(),
            history,
        }
    }

    /// A model serving `placer`, with no training history.
    pub fn from_placer(placer: Placer) -> Self {
        Self {
            placer,
            history: TrainingHistory::default(),
        }
    }

    /// Pad a value and return the clusters in nearest-first order — the
    /// order the DAP uses for fallback (Algorithm 1, step 1). The slice
    /// lives in `scratch`; after the first call nothing is allocated.
    pub fn order_into<'s, R: Rng>(
        &self,
        value: &[u8],
        padder: &Padder,
        rng: &mut R,
        scratch: &'s mut PlacementScratch,
    ) -> &'s [usize] {
        let padded = self.pad_into(value, padder, rng, &mut scratch.padded);
        self.placer.order_packed(padded, &mut scratch.predict)
    }

    /// Cluster of one whole segment's content (Algorithm 2's
    /// re-classification; no padding needed), allocation-free like
    /// [`E2Model::order_into`].
    ///
    /// # Panics
    /// Panics if `segment` is not exactly the model's input width.
    pub fn classify(&self, segment: &[u8], scratch: &mut PlacementScratch) -> usize {
        self.placer.predict_packed(segment, &mut scratch.predict)
    }

    /// [`E2Model::classify`] of a segment whose first `written` bytes
    /// are the value the last [`E2Model::order_into`] on `scratch` was
    /// asked about, when that call padded with zeros at the end: the
    /// prediction is resumed over `segment[written..]` instead of
    /// walking the value's bits again
    /// ([`Placer::resume_packed`]). Same cluster, bit for bit.
    ///
    /// # Panics
    /// Panics if `segment` is not exactly the model's input width or
    /// `scratch` has served no call of this model.
    pub fn classify_written(
        &self,
        segment: &[u8],
        written: usize,
        scratch: &mut PlacementScratch,
    ) -> usize {
        self.placer
            .resume_packed(segment, written, &mut scratch.predict)
    }

    /// [`E2Model::order_into`] with scratch of its own, as an owned
    /// list.
    pub fn cluster_order<R: Rng>(&self, value: &[u8], padder: &Padder, rng: &mut R) -> Vec<usize> {
        self.order_into(value, padder, rng, &mut PlacementScratch::default())
            .to_vec()
    }

    /// Predict the cluster for a (padded) 0.0/1.0 feature vector.
    ///
    /// # Panics
    /// Panics if a feature is neither `0.0` nor `1.0`, or if there are
    /// not exactly the model's input width of them.
    pub fn predict_features(&self, features: &[f32]) -> usize {
        let bits = features_to_bytes(features);
        self.placer
            .predict_packed(&bits, &mut PredictScratch::default())
    }

    /// Classify whole segments (no padding needed), one at a time
    /// through the prediction kernel.
    pub fn classify_segments(&self, contents: &[impl AsRef<[u8]>]) -> Vec<usize> {
        let mut scratch = PlacementScratch::default();
        contents
            .iter()
            .map(|c| self.classify(c.as_ref(), &mut scratch))
            .collect()
    }

    /// Pad `value` to the model input, packed, in `buf`.
    fn pad_into<'b, R: Rng>(
        &self,
        value: &[u8],
        padder: &Padder,
        rng: &mut R,
        buf: &'b mut Vec<u8>,
    ) -> &'b [u8] {
        buf.resize(self.input_bits() / 8, 0);
        padder.pad(value, buf, rng);
        buf
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.placer.k()
    }

    /// Model input width in bit-features.
    pub fn input_bits(&self) -> usize {
        self.placer.input_bits()
    }

    /// Training history (loss curves for Figure 9).
    pub fn history(&self) -> &TrainingHistory {
        &self.history
    }

    /// Multiply-accumulates per prediction (CPU-energy model input):
    /// `in × out` over the placer's layers to μ (μ's own width, not the
    /// serving tile's), then the centroid scan. The *nominal dense*
    /// count — it prices the model, not the serving kernel's skipping
    /// of zero inputs.
    pub fn predict_macs(&self) -> u64 {
        let widths = self.placer.widths();
        let layers: u64 = widths.windows(2).map(|w| (w[0] * w[1]) as u64).sum();
        layers + (self.k() * widths[widths.len() - 1]) as u64
    }

    /// Multiply-accumulates for one retraining epoch on `n` samples,
    /// priced as a VAE whatever placer the model holds: forward +
    /// backward ≈ 3× forward through the encoder — its layers to μ and
    /// the log σ² columns training adds to the last — and the decoder,
    /// which mirrors the layers to μ (the same products).
    pub fn train_macs_per_epoch(&self, n: usize) -> u64 {
        let widths = self.placer.widths();
        let &[.., before, latent] = widths.as_slice() else {
            unreachable!("a placer has an input and a layer")
        };
        let to_mu: u64 = widths.windows(2).map(|w| (w[0] * w[1]) as u64).sum();
        3 * n as u64 * (2 * to_mu + (before * latent) as u64)
    }

    /// Serialize the served model (version 2 of the model codec): the
    /// encoder's layers up to μ and the centroids. The training history
    /// is not persisted — a loaded model serves predictions.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.placer.to_bytes()
    }

    /// Deserialize a model previously produced by [`E2Model::to_bytes`].
    /// A model that could not serve is refused with its own error.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, PersistError> {
        Placer::from_bytes(buf).map(Self::from_placer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::padding::{PaddingLocation, PaddingType};
    use e2nvm_ml::data::segments_to_matrix;
    use e2nvm_ml::rng::seeded;
    use e2nvm_ml::{KMeans, Pca};

    fn clustered_segments(n_per: usize, seg_bytes: usize, rng: &mut impl Rng) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for cls in 0..2u8 {
            let base = if cls == 0 { 0x00 } else { 0xFF };
            for _ in 0..n_per {
                out.push(
                    (0..seg_bytes)
                        .map(|_| if rng.gen::<f32>() < 0.08 { !base } else { base })
                        .collect(),
                );
            }
        }
        out
    }

    fn quick_cfg() -> E2Config {
        E2Config::builder()
            .fast(16, 2)
            .pretrain_epochs(8)
            .joint_epochs(2)
            .build()
            .unwrap()
    }

    #[test]
    fn train_and_separate() {
        let mut rng = seeded(1);
        let contents = clustered_segments(40, 16, &mut rng);
        let model = E2Model::train(&quick_cfg(), &contents, &mut rng);
        assert_eq!(model.k(), 2);
        assert_eq!(model.input_bits(), 128);
        let assigns = model.classify_segments(&contents);
        // The two families must land in different clusters (majority).
        let zeros_cluster = assigns[..40].iter().fold([0usize; 2], |mut acc, &c| {
            acc[c] += 1;
            acc
        });
        let ones_cluster = assigns[40..].iter().fold([0usize; 2], |mut acc, &c| {
            acc[c] += 1;
            acc
        });
        let zmaj = if zeros_cluster[0] > zeros_cluster[1] {
            0
        } else {
            1
        };
        let omaj = if ones_cluster[0] > ones_cluster[1] {
            0
        } else {
            1
        };
        assert_ne!(zmaj, omaj, "families not separated");
    }

    #[test]
    fn padded_prediction_consistent_with_full() {
        let mut rng = seeded(2);
        let contents = clustered_segments(40, 16, &mut rng);
        let model = E2Model::train(&quick_cfg(), &contents, &mut rng);
        let padder = Padder::new(PaddingLocation::End, PaddingType::Zero);
        // A full-size mostly-zero value and a half-size one (zero-padded)
        // should map to the same cluster.
        let full = model.cluster_order(&[0u8; 16], &padder, &mut rng)[0];
        let half = model.cluster_order(&[0u8; 8], &padder, &mut rng)[0];
        assert_eq!(full, half);
    }

    #[test]
    fn cluster_order_starts_with_prediction() {
        let mut rng = seeded(3);
        let contents = clustered_segments(30, 16, &mut rng);
        let model = E2Model::train(&quick_cfg(), &contents, &mut rng);
        let padder = Padder::new(PaddingLocation::End, PaddingType::Zero);
        let value = vec![0xFFu8; 16];
        let pred = model.classify(&value, &mut PlacementScratch::default());
        let order = model.cluster_order(&value, &padder, &mut rng);
        assert_eq!(order[0], pred);
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn persistence_roundtrip_preserves_predictions() {
        let mut rng = seeded(9);
        let contents = clustered_segments(30, 16, &mut rng);
        let model = E2Model::train(&quick_cfg(), &contents, &mut rng);
        let loaded = E2Model::from_bytes(&model.to_bytes()).unwrap();
        assert_eq!(loaded.k(), model.k());
        assert_eq!(loaded.input_bits(), model.input_bits());
        assert_eq!(loaded.predict_macs(), model.predict_macs());
        assert_eq!(
            loaded.train_macs_per_epoch(100),
            model.train_macs_per_epoch(100)
        );
        assert_eq!(
            loaded.classify_segments(&contents),
            model.classify_segments(&contents)
        );
    }

    /// The counts a model derives from its widths are the trained
    /// VAE's: the encoder to μ and log σ², the decoder, the centroids.
    #[test]
    fn macs_are_the_trained_models() {
        let mut rng = seeded(7);
        let contents = clustered_segments(20, 16, &mut rng);
        let cfg = quick_cfg();
        let bits = BitMatrix::from_segments(&contents);
        let (cluster, _) = ClusterModel::train(&cfg.dec_config(), &bits, None, &mut rng);
        let model = E2Model::from_placer(cluster.placer());
        assert_eq!(
            model.train_macs_per_epoch(100),
            cluster.vae().train_macs_per_epoch(100)
        );
        let (h, l) = (cfg.hidden[0], cfg.latent_dim);
        assert_eq!(cfg.hidden.len(), 1);
        assert_eq!(
            model.predict_macs(),
            (128 * h + h * l + model.k() * l) as u64
        );
    }

    /// A PCA placer is priced as what it serves: its one layer and the
    /// centroid scan, no log σ² columns.
    #[test]
    fn a_pca_model_prices_its_one_layer() {
        let mut rng = seeded(5);
        let contents = clustered_segments(40, 16, &mut rng);
        let raw = segments_to_matrix(&contents);
        let pca = Pca::fit(&raw, 6, 10, &mut rng);
        let kmeans = KMeans::fit(&pca.transform(&raw), 3, 20, &mut rng).model;
        let model = E2Model::from_placer(pca.placer(kmeans));
        assert_eq!(model.predict_macs(), (128 * 6 + 3 * 6) as u64);
    }

    #[test]
    fn training_twice_gives_the_same_bytes() {
        // More segments than the cap, so the subsample runs too.
        let cfg = E2Config::builder()
            .fast(16, 2)
            .pretrain_epochs(3)
            .joint_epochs(2)
            .train_sample_cap(48)
            .build()
            .unwrap();
        let contents = clustered_segments(40, 16, &mut seeded(5));
        let train = || E2Model::train(&cfg, &contents, &mut seeded(6)).to_bytes();
        assert_eq!(train(), train());
    }

    #[test]
    fn history_recorded() {
        let mut rng = seeded(4);
        let contents = clustered_segments(30, 16, &mut rng);
        let cfg = quick_cfg();
        let model = E2Model::train(&cfg, &contents, &mut rng);
        assert_eq!(
            model.history().train.len(),
            cfg.pretrain_epochs + cfg.joint_epochs
        );
        assert!(!model.history().validation.is_empty());
    }
}
