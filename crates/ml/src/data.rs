//! Data plumbing: bytes → bit features, train/validation splits, and
//! simple feature matrices from memory-segment snapshots.

use crate::bits::BitMatrix;
use crate::matrix::Matrix;
use rand::Rng;

/// Convert one byte buffer into f32 bit features (MSB-first per byte),
/// one feature per bit — the encoding the paper describes in §3.2
/// ("Each memory location is encoded as a vector of bits, each of which
/// is used as a feature/dimension").
pub fn bytes_to_features(bytes: &[u8]) -> Vec<f32> {
    let mut out = vec![0.0f32; bytes.len() * 8];
    for (features, &b) in out.chunks_exact_mut(8).zip(bytes) {
        for (i, f) in features.iter_mut().enumerate() {
            *f = f32::from((b >> (7 - i)) & 1);
        }
    }
    out
}

/// Inverse of [`bytes_to_features`]: pack 0.0/1.0 features back into
/// MSB-first bytes, the input of the prediction kernel
/// ([`crate::predict`]).
///
/// # Panics
/// Panics if the length is not a whole number of bytes or a feature is
/// neither `0.0` nor `1.0` — the model's input is bits.
pub fn features_to_bytes(features: &[f32]) -> Vec<u8> {
    assert_eq!(
        features.len() % 8,
        0,
        "features_to_bytes: {} features are not whole bytes",
        features.len()
    );
    let mut all_bits = true;
    let bytes = features
        .chunks_exact(8)
        .map(|byte| {
            byte.iter().fold(0u8, |acc, &f| {
                all_bits &= f == 0.0 || f == 1.0;
                (acc << 1) | u8::from(f == 1.0)
            })
        })
        .collect();
    assert!(all_bits, "features_to_bytes: a feature is not a bit");
    bytes
}

/// Stack many equal-length byte buffers into an `n × (len*8)` feature
/// matrix (the paper's "(n, m) 2D tensor").
///
/// # Panics
/// Panics if buffers have differing lengths or the input is empty.
pub fn segments_to_matrix(segments: &[impl AsRef<[u8]>]) -> Matrix {
    assert!(!segments.is_empty(), "segments_to_matrix: empty input");
    let len = segments[0].as_ref().len();
    let mut data = Vec::with_capacity(segments.len() * len * 8);
    for s in segments {
        let s = s.as_ref();
        assert_eq!(s.len(), len, "segments_to_matrix: ragged segments");
        data.extend(bytes_to_features(s));
    }
    Matrix::from_vec(segments.len(), len * 8, data)
}

/// Shuffled train/validation split: `val_frac` of rows go to the
/// validation matrix.
pub fn train_val_split<R: Rng>(
    data: &BitMatrix,
    val_frac: f32,
    rng: &mut R,
) -> (BitMatrix, BitMatrix) {
    assert!((0.0..1.0).contains(&val_frac), "val_frac must be in [0,1)");
    let n = data.rows();
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, rng.gen_range(0..=i));
    }
    let n_val = ((n as f32) * val_frac).round() as usize;
    let (val_idx, train_idx) = idx.split_at(n_val.min(n));
    (data.select_rows(train_idx), data.select_rows(val_idx))
}

/// At most `max_rows` of the segments as rows of bits, drawn uniformly
/// without replacement (bounds training-set size on large pools). Every
/// segment in order, and no RNG draw, when there are no more than
/// `max_rows`.
pub fn subsample_segments<R: Rng>(
    segments: &[impl AsRef<[u8]>],
    max_rows: usize,
    rng: &mut R,
) -> BitMatrix {
    let n = segments.len();
    if n <= max_rows {
        return BitMatrix::from_segments(segments);
    }
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..max_rows {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    let chosen: Vec<&[u8]> = idx[..max_rows]
        .iter()
        .map(|&i| segments[i].as_ref())
        .collect();
    BitMatrix::from_segments(&chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn bit_features_msb_first() {
        let f = bytes_to_features(&[0b1010_0000]);
        assert_eq!(f, vec![1., 0., 1., 0., 0., 0., 0., 0.]);
    }

    #[test]
    #[should_panic(expected = "not a bit")]
    fn non_bit_feature_rejected() {
        features_to_bytes(&[0.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn matrix_from_segments() {
        let m = segments_to_matrix(&[[0xFFu8], [0x00u8]]);
        assert_eq!((m.rows(), m.cols()), (2, 8));
        assert_eq!(m.row(0), &[1.0f32; 8]);
        assert_eq!(m.row(1), &[0.0f32; 8]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_segments_rejected() {
        let a: &[u8] = &[1];
        let b: &[u8] = &[1, 2];
        segments_to_matrix(&[a, b]);
    }

    #[test]
    fn split_partitions_rows() {
        let mut rng = seeded(1);
        let data = BitMatrix::from_segments(&numbered_segments(100));
        let (train, val) = train_val_split(&data, 0.2, &mut rng);
        assert_eq!(train.rows(), 80);
        assert_eq!(val.rows(), 20);
        // Every original row appears exactly once across both.
        let mut seen: Vec<&[u8]> = (0..train.rows())
            .map(|r| train.row(r))
            .chain((0..val.rows()).map(|r| val.row(r)))
            .collect();
        seen.sort_unstable();
        let expect: Vec<&[u8]> = (0..100).map(|r| data.row(r)).collect();
        assert_eq!(seen, expect);
    }

    /// The split of bits is the split of their floats it replaced:
    /// the same draws, the same rows on each side in the same order.
    #[test]
    fn split_of_bits_equals_the_split_of_floats() {
        fn split_rows<R: Rng>(data: &Matrix, val_frac: f32, rng: &mut R) -> (Matrix, Matrix) {
            let n = data.rows();
            let mut idx: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                idx.swap(i, rng.gen_range(0..=i));
            }
            let n_val = ((n as f32) * val_frac).round() as usize;
            let (val_idx, train_idx) = idx.split_at(n_val.min(n));
            (data.select_rows(train_idx), data.select_rows(val_idx))
        }
        let segments = numbered_segments(97);
        let bits = BitMatrix::from_segments(&segments);
        for frac in [0.0, 0.1, 0.5] {
            let (mut a, mut b) = (seeded(8), seeded(8));
            let (train, val) = train_val_split(&bits, frac, &mut a);
            let (train_f, val_f) = split_rows(&segments_to_matrix(&segments), frac, &mut b);
            assert_eq!(train.to_features(), train_f, "fraction {frac}");
            assert_eq!(val.to_features(), val_f, "fraction {frac}");
            assert_eq!(a, b, "fraction {frac}: same RNG state afterwards");
        }
    }

    /// One distinct two-byte segment per index.
    fn numbered_segments(n: u16) -> Vec<[u8; 2]> {
        (0..n).map(u16::to_be_bytes).collect()
    }

    #[test]
    fn subsample_bounds_rows() {
        let mut rng = seeded(2);
        let segments = numbered_segments(50);
        assert_eq!(subsample_segments(&segments, 10, &mut rng).rows(), 10);
        let before = rng.clone();
        let all = subsample_segments(&segments, 100, &mut rng);
        assert_eq!(all, BitMatrix::from_segments(&segments));
        assert_eq!(rng, before, "nothing to drop, nothing drawn");
    }

    #[test]
    fn subsample_has_no_duplicates() {
        let mut rng = seeded(3);
        let s = subsample_segments(&numbered_segments(30), 20, &mut rng);
        let mut rows: Vec<&[u8]> = (0..s.rows()).map(|r| s.row(r)).collect();
        rows.sort_unstable();
        rows.dedup();
        assert_eq!(rows.len(), 20);
    }

    #[test]
    fn subsample_equals_convert_then_select() {
        // The form this replaced: every segment to floats first, then
        // keep `max_rows` of the rows.
        fn subsample_rows<R: Rng>(data: &Matrix, max_rows: usize, rng: &mut R) -> Matrix {
            if data.rows() <= max_rows {
                return data.clone();
            }
            let mut idx: Vec<usize> = (0..data.rows()).collect();
            for i in 0..max_rows {
                let j = rng.gen_range(i..idx.len());
                idx.swap(i, j);
            }
            idx.truncate(max_rows);
            data.select_rows(&idx)
        }
        let segments = numbered_segments(300);
        for cap in [1, 17, 299, 300, 301] {
            let (mut a, mut b) = (seeded(4), seeded(4));
            let new = subsample_segments(&segments, cap, &mut a).to_features();
            let old = subsample_rows(&segments_to_matrix(&segments), cap, &mut b);
            assert_eq!(new, old, "cap {cap}: same rows in the same order");
            assert_eq!(a, b, "cap {cap}: same RNG state afterwards");
        }
    }
}
