//! Variational Autoencoder with the paper's ELBO loss:
//! `l(θ,φ) = -E[log p_φ(x|z)] + KL(q_θ(z|x) ‖ N(0, I))`,
//! Bernoulli decoder (sigmoid + binary cross-entropy) over bit-vector
//! inputs, trained with Adam and the reparameterization trick.

use crate::activation::Activation;
use crate::loss;
use crate::matrix::Matrix;
use crate::mlp::Mlp;
use crate::rng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a [`Vae`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VaeConfig {
    /// Input feature count (bits of one memory segment, after padding).
    pub input_dim: usize,
    /// Hidden layer widths of the encoder (mirrored in the decoder).
    pub hidden: Vec<usize>,
    /// Latent dimensionality (the paper uses ~10).
    pub latent_dim: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Weight of the KL term (β-VAE style; 1.0 = plain ELBO).
    pub beta: f32,
}

impl Default for VaeConfig {
    fn default() -> Self {
        Self {
            input_dim: 256,
            hidden: vec![128],
            latent_dim: 10,
            lr: 1e-3,
            beta: 1.0,
        }
    }
}

/// Per-batch / per-epoch loss components.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct VaeLosses {
    /// Reconstruction loss (BCE summed over features, batch-averaged).
    pub recon: f32,
    /// KL divergence (batch-averaged).
    pub kl: f32,
}

impl VaeLosses {
    /// Total loss `recon + kl`.
    pub fn total(&self) -> f32 {
        self.recon + self.kl
    }
}

const LOGVAR_CLAMP: f32 = 8.0;

/// The VAE: encoder MLP to `(μ, log σ²)`, decoder MLP back to input
/// space.
#[derive(Debug, Clone)]
pub struct Vae {
    cfg: VaeConfig,
    encoder: Mlp,
    decoder: Mlp,
}

impl Vae {
    /// Initialize with random weights.
    pub fn new<R: Rng>(cfg: VaeConfig, rng: &mut R) -> Self {
        assert!(
            cfg.input_dim > 0 && cfg.latent_dim > 0,
            "VaeConfig: zero dims"
        );
        let mut enc_dims = vec![cfg.input_dim];
        enc_dims.extend_from_slice(&cfg.hidden);
        enc_dims.push(2 * cfg.latent_dim);
        let mut dec_dims = vec![cfg.latent_dim];
        dec_dims.extend(cfg.hidden.iter().rev());
        dec_dims.push(cfg.input_dim);
        Self {
            encoder: Mlp::new(&enc_dims, Activation::Relu, Activation::Linear, cfg.lr, rng),
            decoder: Mlp::new(
                &dec_dims,
                Activation::Relu,
                Activation::Sigmoid,
                cfg.lr,
                rng,
            ),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &VaeConfig {
        &self.cfg
    }

    /// Encode to `(μ, log σ²)` without training caches.
    pub fn encode(&self, x: &Matrix) -> (Matrix, Matrix) {
        let h = self.encoder.forward_inference(x);
        split_latent(&h, self.cfg.latent_dim)
    }

    /// Deterministic latent representation (μ) — the serving path used
    /// for clustering in E2-NVM.
    pub fn latent(&self, x: &Matrix) -> Matrix {
        self.encode(x).0
    }

    /// Decode latent codes to input-space probabilities.
    pub fn decode(&self, z: &Matrix) -> Matrix {
        self.decoder.forward_inference(z)
    }

    /// Reconstruct inputs deterministically (through μ).
    pub fn reconstruct(&self, x: &Matrix) -> Matrix {
        self.decode(&self.latent(x))
    }

    /// One gradient step on a batch. Returns the pre-step losses.
    pub fn train_batch<R: Rng>(&mut self, x: &Matrix, rng: &mut R) -> VaeLosses {
        self.train_batch_with(x, rng, |_| None)
    }

    /// One gradient step where `extra_dz` may inject an additional
    /// gradient w.r.t. the sampled latent `z` — the hook the joint
    /// VAE+K-means trainer uses to add its cluster-distance loss.
    pub fn train_batch_with<R: Rng>(
        &mut self,
        x: &Matrix,
        rng: &mut R,
        extra_dz: impl FnOnce(&Matrix) -> Option<Matrix>,
    ) -> VaeLosses {
        let n = x.rows();
        assert!(n > 0, "train_batch: empty batch");
        assert_eq!(x.cols(), self.cfg.input_dim, "train_batch: wrong input dim");
        let l = self.cfg.latent_dim;

        // --- forward ---
        let (mu, mut logvar) = split_latent(self.encoder.forward(x), l);
        logvar.map_inplace(|v| v.clamp(-LOGVAR_CLAMP, LOGVAR_CLAMP));
        let sigma = logvar.map(|v| (0.5 * v).exp());
        let mut eps = Matrix::zeros(n, l);
        rng::fill_normal(rng, eps.as_mut_slice(), 1.0);
        let mut z = sigma.hadamard(&eps);
        z.add_assign(&mu);
        let xhat = self.decoder.forward(&z);

        let losses = VaeLosses {
            recon: loss::bce(xhat, x),
            kl: self.cfg.beta * loss::kl_gaussian(&mu, &logvar),
        };

        // --- backward ---
        // Sigmoid + BCE fused gradient wrt decoder pre-activation.
        let inv_n = 1.0 / n as f32;
        let dz_dec = xhat.zip(x, |p, t| (p - t) * inv_n);
        let mut dz = self.decoder.backward_preact_last(&z, &dz_dec);
        if let Some(extra) = extra_dz(&z) {
            dz.add_assign(&extra);
        }
        // dμ = dz·1 + β·μ/n ; dlogσ² = dz·ε·σ/2 + β(σ²−1)/(2n).
        let beta = self.cfg.beta;
        let mut dmu = dz.clone();
        dmu.add_assign(&mu.map(|m| beta * m * inv_n));
        let mut dlogvar = dz.hadamard(&eps).hadamard(&sigma);
        dlogvar.scale(0.5);
        dlogvar.add_assign(&logvar.map(|lv| beta * 0.5 * (lv.exp() - 1.0) * inv_n));

        let dh = dmu.hcat(&dlogvar);
        // Encoder output layer is Linear, so output grad == preact grad.
        self.encoder.accumulate_preact_last(x, &dh);

        self.decoder.step();
        self.encoder.step();
        losses
    }

    /// One epoch over `data` in shuffled mini-batches; returns the mean
    /// losses across batches.
    pub fn train_epoch<R: Rng>(&mut self, data: &Matrix, batch: usize, rng: &mut R) -> VaeLosses {
        self.train_epoch_with(data, batch, rng, |_| None)
    }

    /// Epoch variant of [`Vae::train_batch_with`].
    pub fn train_epoch_with<R: Rng>(
        &mut self,
        data: &Matrix,
        batch: usize,
        rng: &mut R,
        mut extra_dz: impl FnMut(&Matrix) -> Option<Matrix>,
    ) -> VaeLosses {
        assert!(batch > 0, "train_epoch: zero batch size");
        let n = data.rows();
        let mut idx: Vec<usize> = (0..n).collect();
        // Fisher-Yates shuffle.
        for i in (1..n).rev() {
            idx.swap(i, rng.gen_range(0..=i));
        }
        let mut total = VaeLosses::default();
        let mut batches = 0;
        for chunk in idx.chunks(batch) {
            let xb = data.select_rows(chunk);
            let l = self.train_batch_with(&xb, rng, &mut extra_dz);
            total.recon += l.recon;
            total.kl += l.kl;
            batches += 1;
        }
        if batches > 0 {
            total.recon /= batches as f32;
            total.kl /= batches as f32;
        }
        total
    }

    /// Evaluate losses on held-out data (deterministic: z = μ).
    pub fn evaluate(&self, data: &Matrix) -> VaeLosses {
        let (mu, logvar) = self.encode(data);
        let xhat = self.decode(&mu);
        VaeLosses {
            recon: loss::bce(&xhat, data),
            kl: self.cfg.beta * loss::kl_gaussian(&mu, &logvar),
        }
    }

    /// Multiply-accumulates for one training epoch over `n` samples
    /// (forward + backward ≈ 3× forward cost). Feeds the CPU-energy
    /// model of Figures 8, 16, 18. Like [`Vae::predict_macs`] it is
    /// the *nominal dense* count: it prices the model, not the
    /// kernels' zero-skipping or the encoder's first layer computing
    /// no input gradient.
    pub fn train_macs_per_epoch(&self, n: usize) -> u64 {
        3 * (self.encoder.forward_macs(n) + self.decoder.forward_macs(n))
    }

    /// Multiply-accumulates for encoding one sample (the serving path).
    pub fn predict_macs(&self) -> u64 {
        self.encoder.forward_macs(1)
    }

    /// Borrow the encoder (serving/model-export path).
    pub fn encoder(&self) -> &Mlp {
        &self.encoder
    }

    /// Borrow the decoder (persistence).
    pub fn decoder(&self) -> &Mlp {
        &self.decoder
    }

    /// Rebuild from persisted parts, validating dimensions against the
    /// config.
    pub fn from_parts(cfg: VaeConfig, encoder: Mlp, decoder: Mlp) -> Result<Self, String> {
        if encoder.in_dim() != cfg.input_dim
            || encoder.out_dim() != 2 * cfg.latent_dim
            || decoder.in_dim() != cfg.latent_dim
            || decoder.out_dim() != cfg.input_dim
        {
            return Err("Vae::from_parts: dimensions do not match config".into());
        }
        Ok(Self {
            cfg,
            encoder,
            decoder,
        })
    }
}

fn split_latent(h: &Matrix, latent: usize) -> (Matrix, Matrix) {
    debug_assert_eq!(h.cols(), 2 * latent);
    (h.cols_range(0, latent), h.cols_range(latent, 2 * latent))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    fn two_cluster_bits(n: usize, dim: usize, rng: &mut impl Rng) -> Matrix {
        // Half the rows mostly-zeros, half mostly-ones, 10% flip noise.
        Matrix::from_fn(n, dim, |r, _| {
            let base = if r < n / 2 { 0.0 } else { 1.0 };
            if rng.gen::<f32>() < 0.1 {
                1.0 - base
            } else {
                base
            }
        })
    }

    #[test]
    fn shapes() {
        let mut rng = seeded(1);
        let vae = Vae::new(
            VaeConfig {
                input_dim: 32,
                hidden: vec![16],
                latent_dim: 4,
                ..VaeConfig::default()
            },
            &mut rng,
        );
        let x = Matrix::zeros(5, 32);
        let (mu, lv) = vae.encode(&x);
        assert_eq!((mu.rows(), mu.cols()), (5, 4));
        assert_eq!((lv.rows(), lv.cols()), (5, 4));
        let xhat = vae.reconstruct(&x);
        assert_eq!((xhat.rows(), xhat.cols()), (5, 32));
        // Sigmoid output in (0,1).
        assert!(xhat.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = seeded(2);
        let data = two_cluster_bits(128, 32, &mut rng);
        let mut vae = Vae::new(
            VaeConfig {
                input_dim: 32,
                hidden: vec![24],
                latent_dim: 4,
                lr: 5e-3,
                beta: 0.5,
            },
            &mut rng,
        );
        let first = vae.train_epoch(&data, 16, &mut rng);
        for _ in 0..30 {
            vae.train_epoch(&data, 16, &mut rng);
        }
        let last = vae.evaluate(&data);
        assert!(
            last.recon < first.recon * 0.6,
            "first={first:?} last={last:?}"
        );
    }

    #[test]
    fn latent_separates_clusters() {
        let mut rng = seeded(3);
        let data = two_cluster_bits(128, 32, &mut rng);
        let mut vae = Vae::new(
            VaeConfig {
                input_dim: 32,
                hidden: vec![24],
                latent_dim: 2,
                lr: 5e-3,
                beta: 0.1,
            },
            &mut rng,
        );
        for _ in 0..40 {
            vae.train_epoch(&data, 16, &mut rng);
        }
        let z = vae.latent(&data);
        // Mean latent of each half must be farther apart than the mean
        // intra-half spread.
        let half = z.rows() / 2;
        let mean =
            |m: &Matrix, lo: usize, hi: usize| -> Vec<f32> { m.rows_range(lo, hi).col_means() };
        let m0 = mean(&z, 0, half);
        let m1 = mean(&z, half, z.rows());
        let between: f32 = m0
            .iter()
            .zip(&m1)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(between > 0.5, "clusters not separated: dist={between}");
    }

    #[test]
    fn evaluate_is_deterministic() {
        let mut rng = seeded(4);
        let data = two_cluster_bits(32, 16, &mut rng);
        let vae = Vae::new(
            VaeConfig {
                input_dim: 16,
                hidden: vec![8],
                latent_dim: 3,
                ..VaeConfig::default()
            },
            &mut rng,
        );
        let a = vae.evaluate(&data);
        let b = vae.evaluate(&data);
        assert_eq!(a, b);
    }

    #[test]
    fn extra_dz_hook_receives_z() {
        let mut rng = seeded(5);
        let data = two_cluster_bits(16, 16, &mut rng);
        let mut vae = Vae::new(
            VaeConfig {
                input_dim: 16,
                hidden: vec![8],
                latent_dim: 3,
                ..VaeConfig::default()
            },
            &mut rng,
        );
        let mut called = false;
        vae.train_batch_with(&data, &mut rng, |z| {
            called = true;
            assert_eq!((z.rows(), z.cols()), (16, 3));
            None
        });
        assert!(called);
    }

    #[test]
    fn macs_positive_and_scale_with_n() {
        let mut rng = seeded(6);
        let vae = Vae::new(VaeConfig::default(), &mut rng);
        assert!(vae.predict_macs() > 0);
        assert!(vae.train_macs_per_epoch(200) > vae.train_macs_per_epoch(100));
    }
}
