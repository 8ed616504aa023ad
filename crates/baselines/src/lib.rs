//! # e2nvm-baselines — the write schemes E2-NVM is compared against
//!
//! Two families, matching the paper's §5.2 taxonomy:
//!
//! * **RBW / bit-flip-optimized in-place schemes** ([`InPlaceScheme`]):
//!   [`Dcw`], [`FlipNWrite`], [`MinShift`], [`Captopril`]. They rewrite a
//!   fixed address, transforming data (inversion, rotation, hot-bit
//!   weighting) to minimize flips; auxiliary metadata flips are charged.
//! * **Placement schemes** ([`PlacementScheme`]): [`Datacon`] and
//!   [`HammingTree`]. They choose the destination address by content
//!   similarity.
//!
//! PNW (PCA + K-means) is not here: it is a model, not a placement
//! engine. `e2nvm_ml::Pca::placer` compiles it into the same `Placer`
//! the VAE compiles into, and the bench crate serves it through the
//! E2-NVM engine, so Figure 10's PNW and E2-NVM columns differ in the
//! model alone.

pub mod captopril;
pub mod datacon;
pub mod dcw;
pub mod fnw;
pub mod hamming_tree;
pub mod minshift;
pub mod scheme;

pub use captopril::Captopril;
pub use datacon::Datacon;
pub use dcw::Dcw;
pub use fnw::FlipNWrite;
pub use hamming_tree::HammingTree;
pub use minshift::MinShift;
pub use scheme::{InPlaceScheme, InPlaceWrite, PlacementScheme};
