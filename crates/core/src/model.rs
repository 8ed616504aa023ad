//! The E2-NVM model: a trained projection — PCA's components, or the
//! VAE's encoder up to μ — + the K-means centroids (a [`Placer`]), with
//! byte-level prediction helpers that route values through the padder.

use crate::config::{E2Config, PlacementModel};
use crate::padding::Padder;
use e2nvm_ml::data::{features_to_bytes, subsample_segments, train_val_split};
use e2nvm_ml::persist::{Persist, PersistError};
use e2nvm_ml::{
    BitMatrix, ClusterModel, KMeans, Pca, Placer, PredictScratch, TrainingHistory, VaeLosses,
};
use rand::Rng;

/// Principal components [`PlacementModel::PcaKMeans`] keeps (fewer when
/// the input or the sample is narrower): PNW's 12.
pub const PCA_COMPONENTS: usize = 12;
/// Orthogonal-iteration sweeps of [`PlacementModel::PcaKMeans`]'s fit.
pub const PCA_SWEEPS: usize = 10;
/// K-means starts of [`PlacementModel::PcaKMeans`]: each is a k-means++
/// seeding and its Lloyd iterations, and the lowest-SSE fit is kept, so
/// one unlucky seeding does not fix the partition for the model's life.
pub const PCA_KMEANS_STARTS: usize = 4;
/// Lloyd iterations of each of [`PlacementModel::PcaKMeans`]'s K-means
/// starts.
pub const PCA_KMEANS_ITERS: usize = 30;

/// Caller-owned buffers of the serving path ([`E2Model::nearest_into`],
/// [`E2Model::order_into`], [`E2Model::classify`]): the padded model
/// input as packed bits and the prediction kernel's working memory. One
/// per engine, reused for every placement and recycle.
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
    /// Mean set bits per row of the sample a PCA fit walked
    /// ([`E2Model::train_macs_per_epoch`]); `None` for a VAE and for a
    /// model that was loaded or built from a placer.
    set_bits_per_row: Option<f64>,
}

impl E2Model {
    /// Train the config's [`PlacementModel`] on a snapshot of
    /// memory-segment contents, handed to the trainer as packed rows of
    /// bits. Honors the config's `train_sample_cap` and holds out 10 %
    /// for validation loss curves.
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
        match cfg.model {
            PlacementModel::Vae => {
                let (cluster, history) =
                    ClusterModel::train(&cfg.dec_config(), &train, val_opt, rng);
                Self {
                    history,
                    ..Self::from_placer(cluster.placer())
                }
            }
            PlacementModel::PcaKMeans => {
                let (placer, history) = train_pca_kmeans(&train, val_opt, cfg.k, rng);
                let set_bits: u64 = (0..train.rows())
                    .flat_map(|r| train.row(r))
                    .map(|b| u64::from(b.count_ones()))
                    .sum();
                Self {
                    history,
                    set_bits_per_row: Some(set_bits as f64 / train.rows() as f64),
                    ..Self::from_placer(placer)
                }
            }
        }
    }

    /// A model serving `placer`, with no training history.
    pub fn from_placer(placer: Placer) -> Self {
        Self {
            placer,
            history: TrainingHistory::default(),
            set_bits_per_row: None,
        }
    }

    /// Pad a value and return the clusters in nearest-first order — the
    /// order the DAP falls back along (Algorithm 1, step 1), in one
    /// call: [`E2Model::nearest_into`] then [`E2Model::order_last`]. The
    /// slice lives in `scratch`; after the first call nothing is
    /// allocated.
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

    /// Pad a value and return its nearest cluster — Algorithm 1's first
    /// choice, the first of [`E2Model::order_into`]'s order, which it
    /// does not rank. [`E2Model::order_last`] ranks the rest if the DAP
    /// must fall back. Allocation-free once `scratch` is warm.
    pub fn nearest_into<R: Rng>(
        &self,
        value: &[u8],
        padder: &Padder,
        rng: &mut R,
        scratch: &mut PlacementScratch,
    ) -> usize {
        let padded = self.pad_into(value, padder, rng, &mut scratch.padded);
        self.placer.predict_packed(padded, &mut scratch.predict)
    }

    /// Every cluster nearest-first for the value the last
    /// [`E2Model::nearest_into`] on `scratch` asked about: the order
    /// [`E2Model::order_into`] would have given it, ranked from the μ
    /// still in the scratch ([`Placer::order_last`]) without padding or
    /// predicting again. Nothing may run the model on `scratch` in
    /// between. The slice lives in `scratch`.
    ///
    /// # Panics
    /// Panics if `scratch` has served no call of this model.
    pub fn order_last<'s>(&self, scratch: &'s mut PlacementScratch) -> &'s [usize] {
        self.placer.order_last(&mut scratch.predict)
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

    /// The kind of model that trained this one, read from the placer's
    /// shape (a loaded model has no other record of it): PCA serves one
    /// linear layer, the VAE a hidden layer or more before μ.
    pub fn kind(&self) -> PlacementModel {
        match self.placer.widths().len() {
            2 => PlacementModel::PcaKMeans,
            _ => PlacementModel::Vae,
        }
    }

    /// Multiply-accumulates for one training epoch on `n` samples, priced
    /// as the [`E2Model::kind`] that trained it.
    /// - A VAE epoch: forward + backward ≈ 3× forward through the
    ///   encoder — its layers to μ and the log σ² columns training adds
    ///   to the last — and the decoder, which mirrors the layers to μ
    ///   (the same products).
    /// - A PCA "epoch" is one orthogonal-iteration sweep over the `n × d`
    ///   sample: `X·B` and `Xᵀ·(X·B)`, which the fit computes by walking
    ///   the set bits, `2·n·nnz·p` additions for `nnz` set bits a row
    ///   (the mean's rank-one corrections are not counted). A trained
    ///   model prices `nnz` as its own sample's mean; a loaded one has
    ///   no record of it and prices the dense products, `2·n·d·p`, an
    ///   upper bound.
    pub fn train_macs_per_epoch(&self, n: usize) -> u64 {
        let widths = self.placer.widths();
        let &[.., before, latent] = widths.as_slice() else {
            unreachable!("a placer has an input and a layer")
        };
        let to_mu: u64 = widths.windows(2).map(|w| (w[0] * w[1]) as u64).sum();
        match (self.kind(), self.set_bits_per_row) {
            (PlacementModel::PcaKMeans, Some(nnz)) => {
                (2.0 * n as f64 * nnz * latent as f64).round() as u64
            }
            (PlacementModel::PcaKMeans, None) => 2 * n as u64 * to_mu,
            (PlacementModel::Vae, _) => 3 * n as u64 * (2 * to_mu + (before * latent) as u64),
        }
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

/// [`PlacementModel::PcaKMeans`]: PCA of the training rows' bits, then
/// the best of [`PCA_KMEANS_STARTS`] K-means fits on their scores,
/// compiled into one [`Placer`]. Its history is one "epoch": the
/// reconstruction error of the training rows (and of the validation
/// rows, when there are any) with no KL term, and the kept fit's SSE.
fn train_pca_kmeans<R: Rng>(
    train: &BitMatrix,
    validation: Option<&BitMatrix>,
    k: usize,
    rng: &mut R,
) -> (Placer, TrainingHistory) {
    let pca = Pca::fit(train, PCA_COMPONENTS, PCA_SWEEPS, rng);
    let scores = pca.transform(train);
    // The first of the lowest-SSE fits.
    let fit = (0..PCA_KMEANS_STARTS)
        .map(|_| KMeans::fit(&scores, k, PCA_KMEANS_ITERS, rng))
        .min_by(|a, b| a.sse.total_cmp(&b.sse))
        .expect("at least one start");
    let loss = |bits: &BitMatrix| VaeLosses {
        recon: pca.reconstruction_error(bits),
        kl: 0.0,
    };
    let history = TrainingHistory {
        train: vec![loss(train)],
        validation: validation.map(loss).into_iter().collect(),
        sse: vec![fit.sse],
    };
    (pca.placer(fit.model), history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::padding::{PaddingLocation, PaddingType};
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
            .model(PlacementModel::Vae)
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
        assert_eq!(model.kind(), PlacementModel::Vae);
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
        let raw = BitMatrix::from_segments(&contents);
        let pca = Pca::fit(&raw, 6, 10, &mut rng);
        let kmeans = KMeans::fit(&pca.transform(&raw), 3, 20, &mut rng).model;
        let model = E2Model::from_placer(pca.placer(kmeans));
        assert_eq!(model.predict_macs(), (128 * 6 + 3 * 6) as u64);
    }

    /// A PCA model is priced as one orthogonal-iteration sweep an
    /// epoch, `X·B` and `Xᵀ·(X·B)`: over its sample's set bits when it
    /// was trained, over every bit (the dense bound) when it was loaded.
    #[test]
    fn a_pca_model_prices_one_sweep_an_epoch() {
        // 40 set bits in every row, so the sample's mean is 40 however
        // the rows are subsampled and split.
        let contents: Vec<Vec<u8>> = (0..40)
            .map(|i| {
                let mut seg = vec![0u8; 16];
                for j in 0..5 {
                    seg[(i + 3 * j) % 16] = 0xFF;
                }
                seg
            })
            .collect();
        let cfg = E2Config::builder()
            .fast(16, 3)
            .model(PlacementModel::PcaKMeans)
            .build()
            .unwrap();
        let model = E2Model::train(&cfg, &contents, &mut seeded(5));
        let loaded = E2Model::from_bytes(&model.to_bytes()).unwrap();
        let p = PCA_COMPONENTS as u64;
        assert_eq!(model.kind(), PlacementModel::PcaKMeans);
        assert_eq!(model.train_macs_per_epoch(100), 2 * 100 * 40 * p);
        assert_eq!(loaded.kind(), PlacementModel::PcaKMeans);
        assert_eq!(loaded.train_macs_per_epoch(100), 2 * 100 * 128 * p);
    }

    /// The PCA arm records one epoch — the reconstruction error, no KL
    /// term — and the K-means SSE, so a reader of the last epoch's loss
    /// finds one.
    #[test]
    fn the_pca_history_has_an_epoch() {
        let mut rng = seeded(4);
        let contents = clustered_segments(30, 16, &mut rng);
        let cfg = E2Config::builder().fast(16, 2).build().unwrap();
        assert_eq!(cfg.model, PlacementModel::PcaKMeans);
        let model = E2Model::train(&cfg, &contents, &mut rng);
        let h = model.history();
        assert_eq!(h.train.len(), 1);
        assert_eq!(h.validation.len(), 1);
        assert_eq!(h.sse.len(), 1);
        assert_eq!(h.train[0].kl, 0.0);
        assert!(h.train[0].recon.is_finite() && h.train[0].recon > 0.0);
        assert!(h.sse[0].is_finite());
    }

    #[test]
    fn training_twice_gives_the_same_bytes() {
        let contents = clustered_segments(40, 16, &mut seeded(5));
        for model in [PlacementModel::Vae, PlacementModel::default()] {
            // More segments than the cap, so the subsample runs too.
            let cfg = E2Config::builder()
                .fast(16, 2)
                .model(model)
                .pretrain_epochs(3)
                .joint_epochs(2)
                .train_sample_cap(48)
                .build()
                .unwrap();
            let train = || E2Model::train(&cfg, &contents, &mut seeded(6)).to_bytes();
            assert_eq!(train(), train(), "{model:?}");
        }
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
