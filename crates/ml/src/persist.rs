//! Binary persistence for the serving model.
//!
//! The paper's serving path keeps "only the encoder part of the VAE and
//! the K-means clustering models"; a deployment needs to save the model
//! and load it on restart without retraining. What is written is the
//! [`Placer`], and nothing else: the layer count, then each encoder
//! layer's activation tag, weights and bias — the μ layer at μ's width —
//! then the centroids. The decoder, the log σ² columns, the optimizer
//! state and the training caches are not written: a loaded model serves
//! predictions, and retraining starts from a fresh VAE.
//!
//! This module is a compact, versioned, little-endian codec — no
//! external format dependencies, explicit invariants, and round-trip
//! tests. A model that could not serve (no clusters, widths that do not
//! chain, centroids off μ's width, an input of part of a byte) is
//! refused at decode with its own [`PersistError`].

use crate::activation::Activation;
use crate::kmeans::KMeans;
use crate::matrix::Matrix;
use crate::predict::Placer;

/// Format magic + version (bump on layout changes). Version 1 wrote the
/// whole VAE; version 2 writes the [`Placer`].
const MAGIC: &[u8; 4] = b"E2NV";
const VERSION: u16 = 2;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Buffer ended before the structure was complete.
    UnexpectedEof,
    /// The magic bytes did not match.
    BadHeader,
    /// The artifact was written in another version of the format.
    Version {
        /// The version it was written in.
        found: u16,
        /// The one version this build reads.
        expected: u16,
    },
    /// A tag byte did not correspond to a known variant.
    BadTag(u8),
    /// A length field was implausible (corrupt or hostile input).
    BadLength(u64),
    /// The model has no clusters to place into.
    NoClusters,
    /// Layer `layer` takes `inputs` inputs where the layer before it
    /// (or the input, for the first) gives `expected`.
    LayersDoNotChain {
        /// The layer's index, input first.
        layer: usize,
        /// Its input width.
        inputs: usize,
        /// The width that reaches it.
        expected: usize,
    },
    /// The centroids are not in μ's space.
    CentroidWidth {
        /// The centroids' width.
        centroids: usize,
        /// μ's width.
        latent: usize,
    },
    /// The input width in bits is not a positive whole number of bytes.
    InputNotWholeBytes(usize),
    /// The input is wider, in bits, than a placer serves (65 536: its
    /// set bits are listed as `u16` indices).
    InputTooWide(usize),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::UnexpectedEof => write!(f, "unexpected end of model data"),
            PersistError::BadHeader => write!(f, "not an E2-NVM model file (bad magic)"),
            PersistError::Version { found, expected } => write!(
                f,
                "model format version {found}; this build reads version {expected}"
            ),
            PersistError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            PersistError::BadLength(n) => write!(f, "implausible length field {n}"),
            PersistError::NoClusters => write!(f, "model has no clusters"),
            PersistError::LayersDoNotChain {
                layer,
                inputs,
                expected,
            } => write!(
                f,
                "layer {layer} takes {inputs} inputs but is given {expected}"
            ),
            PersistError::CentroidWidth { centroids, latent } => write!(
                f,
                "centroids {centroids} wide in a {latent}-wide latent space"
            ),
            PersistError::InputNotWholeBytes(bits) => {
                write!(f, "input of {bits} bits is not whole bytes")
            }
            PersistError::InputTooWide(bits) => {
                write!(f, "input of {bits} bits is wider than 65536")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, PersistError>;

/// Upper bound on any single array we will allocate while decoding
/// (guards against corrupt length fields).
const MAX_ELEMENTS: u64 = 1 << 28;

/// Little-endian byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh writer with the format header.
    pub fn with_header() -> Self {
        let mut w = Self::default();
        w.buf.extend_from_slice(MAGIC);
        w.u16(VERSION);
        w
    }

    /// Finish and take the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one value.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Write one value.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Write one value.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Write one value.
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Write one value.
    pub fn f32s(&mut self, vs: &[f32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f32(v);
        }
    }
}

/// Little-endian byte reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a buffer and validate the header.
    pub fn with_header(buf: &'a [u8]) -> Result<Self> {
        let mut r = Self { buf, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(PersistError::BadHeader);
        }
        let found = r.u16()?;
        if found != VERSION {
            return Err(PersistError::Version {
                found,
                expected: VERSION,
            });
        }
        Ok(r)
    }

    /// Whether all bytes were consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(PersistError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one value.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    /// Read one value.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }
    /// Read one value.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    /// Read one value.
    pub fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    /// Read one value.
    pub fn f32s(&mut self) -> Result<Vec<f32>> {
        let n = self.u64()?;
        if n > MAX_ELEMENTS {
            return Err(PersistError::BadLength(n));
        }
        (0..n).map(|_| self.f32()).collect()
    }
}

/// Types encodable into the model format.
pub trait Persist: Sized {
    /// Append self to the writer.
    fn encode(&self, w: &mut Writer);
    /// Decode self from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Encode with the format header into a standalone buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_header();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decode from a standalone buffer (header required, trailing bytes
    /// rejected).
    fn from_bytes(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::with_header(buf)?;
        let v = Self::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(PersistError::BadLength((buf.len() - r.pos) as u64));
        }
        Ok(v)
    }
}

impl Persist for Matrix {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.rows() as u64);
        w.u64(self.cols() as u64);
        w.f32s(self.as_slice());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let rows = r.u64()?;
        let cols = r.u64()?;
        // Each side on its own too: an empty matrix of 2^60 rows is
        // no allocation, but a loop over its rows never ends.
        let elements = rows.saturating_mul(cols);
        if rows.max(cols).max(elements) > MAX_ELEMENTS {
            return Err(PersistError::BadLength(elements.max(rows).max(cols)));
        }
        let data = r.f32s()?;
        if data.len() as u64 != elements {
            return Err(PersistError::BadLength(data.len() as u64));
        }
        Ok(Matrix::from_vec(rows as usize, cols as usize, data))
    }
}

fn activation_tag(a: Activation) -> u8 {
    match a {
        Activation::Linear => 0,
        Activation::Relu => 1,
        Activation::Sigmoid => 2,
        Activation::Tanh => 3,
    }
}

fn activation_from(tag: u8) -> Result<Activation> {
    Ok(match tag {
        0 => Activation::Linear,
        1 => Activation::Relu,
        2 => Activation::Sigmoid,
        3 => Activation::Tanh,
        t => return Err(PersistError::BadTag(t)),
    })
}

impl Persist for Placer {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.layers.len() as u64);
        for layer in &self.layers {
            w.u8(activation_tag(layer.activation));
            // The μ layer's padding columns are rebuilt at load.
            layer.weights.cols_range(0, layer.bias.len()).encode(w);
            w.f32s(&layer.bias);
        }
        self.kmeans.centroids().encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.u64()?;
        if n == 0 || n > 1024 {
            return Err(PersistError::BadLength(n));
        }
        let layers = (0..n)
            .map(|_| {
                let act = activation_from(r.u8()?)?;
                let weights = Matrix::decode(r)?;
                Ok((weights, r.f32s()?, act))
            })
            .collect::<Result<_>>()?;
        Placer::new(layers, KMeans::from_centroids(Matrix::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dec::{ClusterModel, DecConfig};
    use crate::rng::seeded;
    use crate::vae::VaeConfig;
    use rand::Rng;

    #[test]
    fn matrix_roundtrip() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32 * 0.5 - 3.0);
        let bytes = m.to_bytes();
        assert_eq!(Matrix::from_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn bad_magic_rejected() {
        let m = Matrix::zeros(1, 1);
        let mut bytes = m.to_bytes();
        bytes[0] = b'X';
        assert_eq!(Matrix::from_bytes(&bytes), Err(PersistError::BadHeader));
    }

    #[test]
    fn truncation_rejected() {
        let m = Matrix::from_fn(4, 4, |r, c| (r + c) as f32);
        let bytes = m.to_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, 7] {
            assert!(Matrix::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let m = Matrix::zeros(2, 2);
        let mut bytes = m.to_bytes();
        bytes.push(0);
        assert!(matches!(
            Matrix::from_bytes(&bytes),
            Err(PersistError::BadLength(_))
        ));
    }

    #[test]
    fn corrupt_length_does_not_allocate() {
        // A huge rows field must be rejected before allocation.
        let mut w = Writer::with_header();
        w.u64(u64::MAX / 2);
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        assert!(matches!(
            Matrix::from_bytes(&bytes),
            Err(PersistError::BadLength(_))
        ));
    }

    #[test]
    fn an_empty_matrix_of_huge_height_is_refused() {
        // No element to allocate, but a row loop that never ends.
        let mut w = Writer::with_header();
        w.u64(1 << 60);
        w.u64(0);
        w.f32s(&[]);
        assert!(matches!(
            Matrix::from_bytes(&w.into_bytes()),
            Err(PersistError::BadLength(_))
        ));
    }

    /// A trained placer, and segments of both families it clusters.
    fn trained() -> (Placer, Vec<Vec<u8>>) {
        let mut rng = seeded(3);
        let segments: Vec<Vec<u8>> = (0..60)
            .map(|i| {
                let base = if i < 30 { 0x00 } else { 0xFF };
                (0..2).map(|_| base ^ (rng.gen::<u8>() & 0x11)).collect()
            })
            .collect();
        let cfg = DecConfig {
            vae: VaeConfig {
                input_dim: 16,
                hidden: vec![8],
                latent_dim: 3,
                lr: 3e-3,
                beta: 0.2,
            },
            k: 2,
            pretrain_epochs: 5,
            joint_epochs: 1,
            gamma: 0.2,
            batch: 16,
            kmeans_iters: 10,
        };
        let bits = crate::bits::BitMatrix::from_segments(&segments);
        (
            ClusterModel::train(&cfg, &bits, None, &mut rng).0.placer(),
            segments,
        )
    }

    #[test]
    fn placer_roundtrip_preserves_predictions() {
        let (placer, segments) = trained();
        let bytes = placer.to_bytes();
        let loaded = Placer::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.to_bytes(), bytes);
        assert_eq!(loaded.widths(), [16, 8, 3]);
        let mut scratch = crate::predict::PredictScratch::default();
        for s in &segments {
            assert_eq!(
                loaded.predict_packed(s, &mut scratch),
                placer.predict_packed(s, &mut scratch)
            );
        }
    }

    /// Layers as the codec writes them, and the centroids, encoded.
    fn encoded(layers: &[(usize, usize)], k: usize, centroid_width: usize) -> Vec<u8> {
        let mut w = Writer::with_header();
        w.u64(layers.len() as u64);
        for &(rows, cols) in layers {
            w.u8(activation_tag(Activation::Relu));
            Matrix::zeros(rows, cols).encode(&mut w);
            w.f32s(&vec![0.0; cols]);
        }
        Matrix::zeros(k, centroid_width).encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn a_model_that_cannot_serve_is_refused() {
        assert!(Placer::from_bytes(&encoded(&[(16, 8), (8, 3)], 2, 3)).is_ok());
        let cases = [
            (encoded(&[(16, 8), (8, 3)], 0, 3), PersistError::NoClusters),
            (
                encoded(&[(16, 8), (8, 3)], 2, 4),
                PersistError::CentroidWidth {
                    centroids: 4,
                    latent: 3,
                },
            ),
            (
                encoded(&[(16, 8), (9, 3)], 2, 3),
                PersistError::LayersDoNotChain {
                    layer: 1,
                    inputs: 9,
                    expected: 8,
                },
            ),
            (
                encoded(&[(12, 8), (8, 3)], 2, 3),
                PersistError::InputNotWholeBytes(12),
            ),
            (
                encoded(&[(65_544, 1)], 2, 1),
                PersistError::InputTooWide(65_544),
            ),
            (encoded(&[], 2, 3), PersistError::BadLength(0)),
        ];
        for (bytes, err) in cases {
            assert_eq!(Placer::from_bytes(&bytes).unwrap_err(), err);
        }
    }

    #[test]
    fn an_earlier_version_is_refused() {
        let mut bytes = trained().0.to_bytes();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            Placer::from_bytes(&bytes).unwrap_err(),
            PersistError::Version {
                found: 1,
                expected: 2
            }
        );
    }
}
