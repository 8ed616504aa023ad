//! # e2nvm-ml — from-scratch ML substrate for the E2-NVM reproduction
//!
//! The paper's model stack is small but specific: a **VAE** whose encoder
//! compresses memory-segment bit vectors into a ~10-dimensional latent
//! space, **K-means** jointly trained on that latent space (DEC-style),
//! **PCA + K-means** as the PNW baseline, and an **LSTM** that predicts
//! padding bits (64-bit window → 8 bits per step). None of the allowed
//! dependency crates provide these, so this crate implements them from
//! scratch on a compact row-major [`matrix::Matrix`], with Adam, BPTT,
//! and gradient-checked backprop.
//!
//! All models are deterministic given a seeded RNG
//! ([`rng::seeded`]), which keeps every experiment in the workspace
//! reproducible.

// One exception, scoped to its call site: the CPU-feature dispatch of
// `kernel::Kernel::run`, which training, serving and the optimizer share.
#![deny(unsafe_code)]

pub mod activation;
pub mod data;
pub mod dec;
pub mod dense;
mod kernel;
pub mod kmeans;
pub mod loss;
pub mod lstm;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod pca;
pub mod persist;
pub mod predict;
pub mod rng;
pub mod vae;

pub use activation::Activation;
pub use dec::{ClusterModel, DecConfig, TrainingHistory};
pub use dense::Dense;
pub use kmeans::{elbow_k, KMeans, KMeansFit};
pub use lstm::{Lstm, LstmConfig};
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use pca::Pca;
pub use persist::{Persist, PersistError};
pub use predict::PredictScratch;
pub use vae::{Vae, VaeConfig, VaeLosses};
