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

// The exceptions, each scoped to its function: the CPU-feature dispatch
// of `kernel::Kernel::run`, which training, serving, the optimizer and
// the `exp`/`ln` lanes share; the compaction `kernel::compact_non_zero`
// and its AVX-512 instantiation `kernel::compact_avx512`; the set-bit
// decoder's word dispatch `kernel::set_bits_by_word` and its VBMI2
// instantiation `kernel::set_bits_vbmi2`. Every `unsafe` block says why
// it is sound.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod activation;
pub mod bits;
pub mod data;
pub mod dec;
pub mod dense;
mod kernel;
pub mod kmeans;
mod libm;
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
pub use bits::BitMatrix;
pub use dec::{ClusterModel, DecConfig, TrainingHistory};
pub use dense::Dense;
pub use kmeans::{elbow_k, KMeans, KMeansFit};
pub use lstm::{Lstm, LstmConfig};
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use pca::Pca;
pub use persist::{Persist, PersistError};
pub use predict::{Placer, PredictScratch};
pub use vae::{Vae, VaeConfig, VaeLosses};
