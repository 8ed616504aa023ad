//! E2-NVM engine configuration.
//!
//! [`E2Config::builder`] is the canonical construction path: it
//! validates on [`E2ConfigBuilder::build`], so an invalid configuration
//! is caught at the call site instead of surfacing later inside
//! [`crate::E2Engine::new`]. The struct's fields stay `pub` for
//! experiment code that sweeps parameters in place.

use crate::error::{E2Error, Result};
use crate::padding::{PaddingLocation, PaddingType};
use e2nvm_ml::bits::MAX_INPUT_BITS;
use e2nvm_ml::{DecConfig, VaeConfig};
use serde::{Deserialize, Serialize};

/// Configuration of an [`crate::E2Engine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E2Config {
    /// Number of clusters K (see [`crate::kselect`] for choosing it).
    pub k: usize,
    /// Segment size in bytes — must match the device the engine runs on.
    pub segment_bytes: usize,
    /// Latent dimensionality of the VAE (paper: ~10).
    pub latent_dim: usize,
    /// Encoder hidden layer widths.
    pub hidden: Vec<usize>,
    /// VAE pretraining epochs.
    pub pretrain_epochs: usize,
    /// Joint VAE+K-means fine-tuning epochs.
    pub joint_epochs: usize,
    /// Cluster-loss weight γ.
    pub gamma: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// KL weight β.
    pub beta: f32,
    /// Cap on training-set size: at most this many free segments are
    /// sampled for (re)training (§4.1.4's incremental indexing).
    pub train_sample_cap: usize,
    /// Retraining trigger: retrain when any cluster's free list drops
    /// below this many addresses (§4.1.4 "minimum threshold").
    pub retrain_min_free: usize,
    /// Where padding bits are placed for sub-segment values.
    pub padding_location: PaddingLocation,
    /// How padding bits are generated.
    pub padding_type: PaddingType,
    /// RNG seed for model init, shuffling, and padding randomness.
    pub seed: u64,
}

impl Default for E2Config {
    fn default() -> Self {
        Self {
            k: 10,
            segment_bytes: 256,
            latent_dim: 10,
            hidden: vec![128],
            pretrain_epochs: 15,
            joint_epochs: 5,
            gamma: 0.1,
            lr: 2e-3,
            beta: 0.3,
            train_sample_cap: 4096,
            retrain_min_free: 2,
            padding_location: PaddingLocation::End,
            padding_type: PaddingType::Learned,
            seed: 0xE211,
        }
    }
}

impl E2Config {
    /// Model input width in bit-features.
    pub fn input_bits(&self) -> usize {
        self.segment_bytes * 8
    }

    /// The derived joint-training configuration.
    pub fn dec_config(&self) -> DecConfig {
        DecConfig {
            vae: VaeConfig {
                input_dim: self.input_bits(),
                hidden: self.hidden.clone(),
                latent_dim: self.latent_dim,
                lr: self.lr,
                beta: self.beta,
            },
            k: self.k,
            pretrain_epochs: self.pretrain_epochs,
            joint_epochs: self.joint_epochs,
            gamma: self.gamma,
            // Every engine trains in mini-batches of 64.
            batch: 64,
            kmeans_iters: 25,
        }
    }

    /// A builder starting from [`E2Config::default`] — the canonical way
    /// to construct a validated configuration.
    pub fn builder() -> E2ConfigBuilder {
        E2ConfigBuilder::default()
    }

    /// Validate basic constraints.
    pub fn validate(&self) -> Result<()> {
        let fail = |msg: &str| Err(E2Error::Config(msg.into()));
        if self.k == 0 {
            return fail("k must be >= 1");
        }
        if self.segment_bytes == 0 {
            return fail("segment_bytes must be > 0");
        }
        if self.input_bits() > MAX_INPUT_BITS {
            return Err(E2Error::Config(format!(
                "segment_bytes must be <= {}: the model's input indices are u16",
                MAX_INPUT_BITS / 8
            )));
        }
        if self.latent_dim == 0 {
            return fail("latent_dim must be > 0");
        }
        if self.hidden.is_empty() || self.hidden.contains(&0) {
            return fail("hidden layer widths must be non-empty and > 0");
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return fail("lr must be finite and > 0");
        }
        if !(self.gamma.is_finite() && self.gamma >= 0.0) {
            return fail("gamma must be finite and >= 0");
        }
        if !(self.beta.is_finite() && self.beta >= 0.0) {
            return fail("beta must be finite and >= 0");
        }
        if self.train_sample_cap == 0 {
            return fail("train_sample_cap must be > 0");
        }
        Ok(())
    }

    /// A small/fast configuration for tests and quick demos.
    pub fn fast(segment_bytes: usize, k: usize) -> Self {
        Self {
            k,
            segment_bytes,
            latent_dim: 4,
            hidden: vec![32],
            pretrain_epochs: 8,
            joint_epochs: 3,
            train_sample_cap: 1024,
            ..Self::default()
        }
    }
}

/// Builder for [`E2Config`] with validation at [`E2ConfigBuilder::build`].
///
/// Starts from [`E2Config::default`]; [`E2ConfigBuilder::fast`] switches
/// the base to the small test/demo profile before applying the
/// individual setters.
///
/// ```
/// use e2nvm_core::E2Config;
///
/// let cfg = E2Config::builder()
///     .segment_bytes(64)
///     .k(4)
///     .retrain_min_free(1)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.k, 4);
/// assert!(E2Config::builder().k(0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct E2ConfigBuilder {
    cfg: E2Config,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $field(mut self, value: $ty) -> Self {
                self.cfg.$field = value;
                self
            }
        )*
    };
}

impl E2ConfigBuilder {
    /// Replace the base with [`E2Config::fast`] (small/fast profile for
    /// tests and quick demos), keeping any setters applied afterwards.
    pub fn fast(mut self, segment_bytes: usize, k: usize) -> Self {
        self.cfg = E2Config::fast(segment_bytes, k);
        self
    }

    builder_setters! {
        /// Number of clusters K.
        k: usize,
        /// Segment size in bytes (must match the device).
        segment_bytes: usize,
        /// Latent dimensionality of the VAE.
        latent_dim: usize,
        /// Encoder hidden layer widths.
        hidden: Vec<usize>,
        /// VAE pretraining epochs.
        pretrain_epochs: usize,
        /// Joint VAE+K-means fine-tuning epochs.
        joint_epochs: usize,
        /// Cluster-loss weight γ.
        gamma: f32,
        /// Adam learning rate.
        lr: f32,
        /// KL weight β.
        beta: f32,
        /// Cap on training-set size.
        train_sample_cap: usize,
        /// Per-cluster low-water mark that triggers retraining.
        retrain_min_free: usize,
        /// Where padding bits are placed.
        padding_location: PaddingLocation,
        /// How padding bits are generated.
        padding_type: PaddingType,
        /// RNG seed.
        seed: u64,
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<E2Config> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(E2Config::default().validate().is_ok());
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(E2Config::builder().build().unwrap(), E2Config::default());
    }

    #[test]
    fn builder_sets_fields_over_fast_profile() {
        let cfg = E2Config::builder()
            .fast(64, 2)
            .pretrain_epochs(4)
            .joint_epochs(1)
            .padding_type(PaddingType::Zero)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(cfg.segment_bytes, 64);
        assert_eq!(cfg.k, 2);
        assert_eq!(cfg.pretrain_epochs, 4);
        assert_eq!(cfg.joint_epochs, 1);
        assert_eq!(cfg.padding_type, PaddingType::Zero);
        assert_eq!(cfg.seed, 7);
        // Untouched fields keep the fast-profile values.
        assert_eq!(cfg.latent_dim, E2Config::fast(64, 2).latent_dim);
    }

    #[test]
    fn builder_rejects_invalid() {
        assert!(matches!(
            E2Config::builder().k(0).build(),
            Err(E2Error::Config(_))
        ));
        assert!(E2Config::builder().lr(0.0).build().is_err());
        assert!(E2Config::builder().lr(f32::NAN).build().is_err());
        assert!(E2Config::builder().hidden(vec![]).build().is_err());
        assert!(E2Config::builder().hidden(vec![32, 0]).build().is_err());
        assert!(E2Config::builder().train_sample_cap(0).build().is_err());
    }

    #[test]
    fn invalid_fields_caught() {
        for cfg in [
            E2Config {
                k: 0,
                ..E2Config::default()
            },
            E2Config {
                segment_bytes: 0,
                ..E2Config::default()
            },
            E2Config {
                segment_bytes: MAX_INPUT_BITS / 8 + 1,
                ..E2Config::default()
            },
            E2Config {
                latent_dim: 0,
                ..E2Config::default()
            },
        ] {
            assert!(cfg.validate().is_err());
        }
    }

    #[test]
    fn dec_config_derives_dims() {
        let cfg = E2Config::fast(64, 5);
        let dec = cfg.dec_config();
        assert_eq!(dec.vae.input_dim, 512);
        assert_eq!(dec.k, 5);
        assert_eq!(cfg.input_bits(), 512);
    }
}
