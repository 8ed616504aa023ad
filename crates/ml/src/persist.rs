//! Binary persistence for trained models.
//!
//! The paper's serving path keeps "only the encoder part of the VAE and
//! the K-means clustering models"; a deployment needs to save the model
//! and load it on restart without retraining. A `ClusterModel` is
//! written whole — VAE config, encoder, decoder, centroids — although
//! prediction reads only the encoder and the centroids. This module
//! is a compact, versioned, little-endian codec for the model types —
//! no external format dependencies, explicit invariants, and round-trip
//! property tests.
//!
//! Optimizer state and training caches are deliberately *not* encoded:
//! a loaded model serves predictions; resuming training re-initializes
//! Adam (standard practice for small models).

use crate::activation::Activation;
use crate::dense::Dense;
use crate::kmeans::KMeans;
use crate::matrix::Matrix;
use crate::mlp::Mlp;
use crate::vae::{Vae, VaeConfig};

/// Format magic + version (bump on layout changes).
const MAGIC: &[u8; 4] = b"E2NV";
const VERSION: u16 = 1;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Buffer ended before the structure was complete.
    UnexpectedEof,
    /// Magic bytes or version did not match.
    BadHeader,
    /// A tag byte did not correspond to a known variant.
    BadTag(u8),
    /// A length field was implausible (corrupt or hostile input).
    BadLength(u64),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::UnexpectedEof => write!(f, "unexpected end of model data"),
            PersistError::BadHeader => write!(f, "not an E2-NVM model file (bad magic/version)"),
            PersistError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            PersistError::BadLength(n) => write!(f, "implausible length field {n}"),
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
        if r.u16()? != VERSION {
            return Err(PersistError::BadHeader);
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
        let elements = rows.saturating_mul(cols);
        if elements > MAX_ELEMENTS {
            return Err(PersistError::BadLength(elements));
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

impl Persist for Dense {
    fn encode(&self, w: &mut Writer) {
        w.u8(activation_tag(self.activation()));
        self.weights().encode(w);
        w.f32s(self.bias());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let act = activation_from(r.u8()?)?;
        let weights = Matrix::decode(r)?;
        let bias = r.f32s()?;
        if bias.len() != weights.cols() {
            return Err(PersistError::BadLength(bias.len() as u64));
        }
        Ok(Dense::from_parts(weights, bias, act))
    }
}

impl Persist for Mlp {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.layers().len() as u64);
        for layer in self.layers() {
            layer.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.u64()?;
        if n > 1024 {
            return Err(PersistError::BadLength(n));
        }
        let layers: Result<Vec<Dense>> = (0..n).map(|_| Dense::decode(r)).collect();
        Mlp::from_layers(layers?).map_err(|_| PersistError::BadLength(n))
    }
}

impl Persist for VaeConfig {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.input_dim as u64);
        w.u64(self.hidden.len() as u64);
        for &h in &self.hidden {
            w.u64(h as u64);
        }
        w.u64(self.latent_dim as u64);
        w.f32(self.lr);
        w.f32(self.beta);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let input_dim = r.u64()? as usize;
        let nh = r.u64()?;
        if nh > 64 {
            return Err(PersistError::BadLength(nh));
        }
        let hidden: Result<Vec<usize>> = (0..nh).map(|_| Ok(r.u64()? as usize)).collect();
        Ok(VaeConfig {
            input_dim,
            hidden: hidden?,
            latent_dim: r.u64()? as usize,
            lr: r.f32()?,
            beta: r.f32()?,
        })
    }
}

impl Persist for Vae {
    fn encode(&self, w: &mut Writer) {
        self.config().encode(w);
        self.encoder().encode(w);
        self.decoder().encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let cfg = VaeConfig::decode(r)?;
        let encoder = Mlp::decode(r)?;
        let decoder = Mlp::decode(r)?;
        Vae::from_parts(cfg, encoder, decoder).map_err(|_| PersistError::BadHeader)
    }
}

impl Persist for KMeans {
    fn encode(&self, w: &mut Writer) {
        self.centroids().encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(KMeans::from_centroids(Matrix::decode(r)?))
    }
}

impl Persist for crate::dec::ClusterModel {
    fn encode(&self, w: &mut Writer) {
        // Fully qualified: `Vae` has an inherent `encode` (the latent
        // encoder) that would shadow the trait method.
        Persist::encode(self.vae(), w);
        Persist::encode(self.kmeans(), w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let vae = <Vae as Persist>::decode(r)?;
        let kmeans = <KMeans as Persist>::decode(r)?;
        crate::dec::ClusterModel::from_parts(vae, kmeans).map_err(|_| PersistError::BadHeader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dec::{ClusterModel, DecConfig};
    use crate::rng::seeded;
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
    fn mlp_roundtrip_preserves_inference() {
        let mut rng = seeded(1);
        let mlp = Mlp::new(
            &[6, 4, 2],
            Activation::Relu,
            Activation::Sigmoid,
            1e-3,
            &mut rng,
        );
        let x = Matrix::from_fn(3, 6, |r, c| (r as f32 - c as f32) * 0.3);
        let before = mlp.forward_inference(&x);
        let loaded = Mlp::from_bytes(&mlp.to_bytes()).unwrap();
        assert_eq!(loaded.forward_inference(&x), before);
    }

    #[test]
    fn vae_roundtrip_preserves_latent() {
        let mut rng = seeded(2);
        let vae = Vae::new(
            VaeConfig {
                input_dim: 16,
                hidden: vec![8],
                latent_dim: 3,
                lr: 1e-3,
                beta: 0.5,
            },
            &mut rng,
        );
        let x = Matrix::from_fn(2, 16, |r, c| ((r + c) % 2) as f32);
        let before = vae.latent(&x);
        let loaded = Vae::from_bytes(&vae.to_bytes()).unwrap();
        assert_eq!(loaded.latent(&x), before);
        assert_eq!(loaded.config(), vae.config());
    }

    #[test]
    fn cluster_model_roundtrip_preserves_predictions() {
        let mut rng = seeded(3);
        let data = Matrix::from_fn(60, 16, |r, _| {
            let base = if r < 30 { 0.0 } else { 1.0 };
            if rng.gen::<f32>() < 0.1 {
                1.0 - base
            } else {
                base
            }
        });
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
        let bits = crate::bits::BitMatrix::from_features(&data);
        let (model, _) = ClusterModel::train(&cfg, &bits, None, &mut rng);
        let loaded = ClusterModel::from_bytes(&model.to_bytes()).unwrap();
        for r in 0..data.rows() {
            assert_eq!(loaded.predict(data.row(r)), model.predict(data.row(r)));
        }
    }

    #[test]
    fn kmeans_roundtrip() {
        let km = KMeans::from_centroids(Matrix::from_fn(3, 4, |r, c| (r * c) as f32));
        let loaded = KMeans::from_bytes(&km.to_bytes()).unwrap();
        assert_eq!(loaded.centroids(), km.centroids());
    }
}
