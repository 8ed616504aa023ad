//! The single-sample prediction kernel: packed bits in, clusters out.
//!
//! Every write (Algorithm 1) and every recycle (Algorithm 2) asks the
//! [`ClusterModel`] about *one* segment whose features are bits (§3.2),
//! so this path takes the bits as they sit in memory — MSB-first bytes,
//! the layout [`crate::data::bytes_to_features`] defines — and pays per
//! *set* bit instead of per feature. All working memory is a
//! caller-owned [`PredictScratch`]: after the first call with a given
//! model no call allocates.
//!
//! # Summation-order contract
//!
//! The batched `Matrix` path (`Vae::latent` + `KMeans`) stays for
//! training and is the reference the tests compare this kernel against;
//! the two must agree *bit for bit*, because a single differing cluster
//! decision changes a placement. `f32` addition is not associative, so
//! the kernel reproduces the reference's order of operations exactly:
//!
//! * a layer's pre-activation starts at `0.0` and takes the weight rows
//!   of its non-zero inputs in **ascending input index** (what
//!   `Matrix::matmul`'s ikj loop with its `a == 0.0` skip does); for
//!   bit inputs `1.0 * w == w`, so adding the row is the same value;
//! * the bias is added **after** the rows (`add_row_broadcast`), then
//!   the activation is applied;
//! * output columns are independent, so computing only the μ half of
//!   the last encoder layer changes none of them;
//! * centroid distances use the reference's own `kmeans::dist2`, and
//!   equal distances keep ascending cluster index (the reference's
//!   stable sort).
//!
//! ## Resume clause
//!
//! The first layer's pre-bias sums are a left fold over the set bits in
//! ascending index, so the fold over a prefix of the input is an exact
//! intermediate of the fold over the whole input. A full call leaves
//! those sums in the scratch; when its input was all zero from byte `n`
//! on (a value zero-padded at the end), [`ClusterModel::resume_packed`]
//! continues the fold over the set bits of bytes `n..` of a segment
//! that starts with the same `n` bytes and arrives at the full call's
//! additions in the full call's order: μ and the cluster are those of
//! `predict_packed` on the whole segment, bit for bit, for the rows of
//! the tail alone.

use crate::dec::ClusterModel;
use crate::dense::Dense;
use crate::kmeans::dist2;

/// Caller-owned working memory of the prediction kernel. Buffers grow
/// to the model's widths on first use and are reused afterwards.
#[derive(Debug, Default)]
pub struct PredictScratch {
    /// First-layer sums of the last full call, before bias and
    /// activation — what [`ClusterModel::resume_packed`] continues.
    sums0: Vec<f32>,
    /// Activations of the layer just computed (finally μ).
    cur: Vec<f32>,
    /// Activations of the layer being computed.
    next: Vec<f32>,
    /// Squared distance from μ to each centroid.
    dist: Vec<f32>,
    /// Cluster ids, nearest first.
    order: Vec<usize>,
}

impl ClusterModel {
    /// Nearest cluster of one sample given as packed bits
    /// (`input_dim / 8` MSB-first bytes).
    ///
    /// # Panics
    /// Panics if `bits` is not exactly the model's input width.
    pub fn predict_packed(&self, bits: &[u8], scratch: &mut PredictScratch) -> usize {
        self.latent_packed(bits, scratch);
        self.kmeans().predict(&scratch.cur)
    }

    /// All clusters ordered nearest-first for one packed-bit sample —
    /// the DAP's fallback order. The slice lives in `scratch`.
    ///
    /// # Panics
    /// Panics if `bits` is not exactly the model's input width.
    pub fn order_packed<'s>(&self, bits: &[u8], scratch: &'s mut PredictScratch) -> &'s [usize] {
        self.latent_packed(bits, scratch);
        let PredictScratch {
            cur, dist, order, ..
        } = scratch;
        let centroids = self.kmeans().centroids();
        dist.clear();
        dist.extend((0..centroids.rows()).map(|c| dist2(centroids.row(c), cur)));
        order.clear();
        order.extend(0..centroids.rows());
        // In place (no merge buffer); the index tie-break makes it the
        // reference's stable order.
        order.sort_unstable_by(|&a, &b| {
            dist[a]
                .partial_cmp(&dist[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order
    }

    /// Nearest cluster of `bits`, continuing the last full call on
    /// `scratch` instead of starting over: that call's input must have
    /// been `bits[..from]` followed by zero bytes. Only the set bits of
    /// `bits[from..]` are visited; the result is
    /// [`ClusterModel::predict_packed`]'s on all of `bits` (the module
    /// docs' resume clause). The remembered sums are left as they were,
    /// so several segments may be resumed from one full call.
    ///
    /// # Panics
    /// Panics if `bits` is not exactly the model's input width, if
    /// `from` is past its end, or if `scratch` holds no full call of
    /// this model's width.
    pub fn resume_packed(&self, bits: &[u8], from: usize, scratch: &mut PredictScratch) -> usize {
        self.check_width(bits);
        assert!(from <= bits.len(), "resume: byte {from} past the input");
        let first = &self.vae().encoder().layers()[0];
        let PredictScratch { sums0, next, .. } = &mut *scratch;
        assert_eq!(
            sums0.len(),
            self.layer_width(0),
            "resume: no full call on this scratch"
        );
        next.clear();
        next.extend_from_slice(sums0);
        add_rows_of_set_bits(first, bits, from, next);
        self.finish_layers(scratch);
        self.kmeans().predict(&scratch.cur)
    }

    fn check_width(&self, bits: &[u8]) {
        assert_eq!(
            bits.len() * 8,
            self.input_dim(),
            "predict: {} packed bytes for a {}-bit model",
            bits.len(),
            self.input_dim()
        );
    }

    /// Columns of encoder layer `i` the kernel computes: the last layer
    /// emits (μ, log σ²) and only μ is served.
    fn layer_width(&self, i: usize) -> usize {
        let layers = self.vae().encoder().layers();
        if i + 1 == layers.len() {
            self.vae().config().latent_dim
        } else {
            layers[i].out_dim()
        }
    }

    /// Encoder μ of one packed-bit sample, left in `scratch.cur`; the
    /// first layer's pre-bias sums stay in `scratch.sums0`.
    fn latent_packed(&self, bits: &[u8], scratch: &mut PredictScratch) {
        self.check_width(bits);
        let first = &self.vae().encoder().layers()[0];
        let PredictScratch { sums0, next, .. } = &mut *scratch;
        sums0.clear();
        sums0.resize(self.layer_width(0), 0.0);
        add_rows_of_set_bits(first, bits, 0, sums0);
        next.clear();
        next.extend_from_slice(sums0);
        self.finish_layers(scratch);
    }

    /// From the first layer's pre-bias sums in `scratch.next` to μ in
    /// `scratch.cur`: bias and activation, then the remaining layers.
    fn finish_layers(&self, scratch: &mut PredictScratch) {
        let layers = self.vae().encoder().layers();
        let PredictScratch { cur, next, .. } = scratch;
        for (i, layer) in layers.iter().enumerate() {
            if i > 0 {
                next.clear();
                next.resize(self.layer_width(i), 0.0);
                add_scaled_rows(layer, cur, next);
            }
            for (z, b) in next.iter_mut().zip(layer.bias()) {
                *z = layer.activation().apply(*z + b);
            }
            std::mem::swap(cur, next);
        }
    }
}

/// `out += Σ W[i]` over the set bits `i` of `bits[from..]` (indexed
/// from the start of `bits`), ascending, keeping the first `out.len()`
/// columns.
fn add_rows_of_set_bits(layer: &Dense, bits: &[u8], from: usize, out: &mut [f32]) {
    let w = layer.weights();
    let first_word = from / 8;
    // A word at a time: the inner loop's exit is the branch the CPU
    // cannot predict, and this takes it once per 64 bits, not per 8.
    for (word_idx, chunk) in bits.chunks(8).enumerate().skip(first_word) {
        let mut bytes = [0u8; 8];
        bytes[..chunk.len()].copy_from_slice(chunk);
        // Big-endian keeps MSB-first: the highest set bit is the lowest
        // feature index.
        let mut rest = u64::from_be_bytes(bytes);
        if word_idx == first_word {
            // Drop the bytes of this word that lie before `from`.
            rest &= u64::MAX >> (from % 8 * 8);
        }
        while rest != 0 {
            let lead = rest.leading_zeros() as usize;
            rest &= !(1 << (63 - lead));
            let row = &w.row(word_idx * 64 + lead)[..out.len()];
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
    }
}

/// `out += Σ x[i] · W[i]` over the non-zero `x[i]`, ascending, keeping
/// the first `out.len()` columns.
fn add_scaled_rows(layer: &Dense, x: &[f32], out: &mut [f32]) {
    let w = layer.weights();
    for (i, &a) in x.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let row = &w.row(i)[..out.len()];
        for (o, &v) in out.iter_mut().zip(row) {
            *o += a * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{bytes_to_features, segments_to_matrix};
    use crate::dec::DecConfig;
    use crate::matrix::Matrix;
    use crate::rng::seeded;
    use crate::vae::VaeConfig;
    use rand::Rng;

    /// Not a whole number of 64-bit words, so the tail is covered too.
    const BYTES: usize = 36;

    /// A briefly trained model (non-zero biases) with the given encoder
    /// hidden widths, and segments of every density to ask it about.
    fn model_and_samples(hidden: &[usize]) -> (ClusterModel, Vec<Vec<u8>>) {
        let mut rng = seeded(0xBEEF ^ hidden.len() as u64);
        let samples: Vec<Vec<u8>> = (0..96)
            .map(|i| {
                let density = i as f32 / 95.0;
                (0..BYTES)
                    .map(|_| {
                        (0..8).fold(0u8, |b, _| (b << 1) | u8::from(rng.gen::<f32>() < density))
                    })
                    .collect()
            })
            .collect();
        let cfg = DecConfig {
            vae: VaeConfig {
                input_dim: BYTES * 8,
                hidden: hidden.to_vec(),
                latent_dim: 6,
                lr: 5e-3,
                beta: 0.2,
            },
            k: 7,
            pretrain_epochs: 2,
            joint_epochs: 1,
            batch: 16,
            ..DecConfig::default()
        };
        let (model, _) = ClusterModel::train(&cfg, &segments_to_matrix(&samples), None, &mut rng);
        (model, samples)
    }

    /// The contract of the module docs, checked where it is stated: μ
    /// itself — not just the cluster it leads to — is the `Matrix`
    /// path's to the last bit, for zero, one and two hidden layers.
    #[test]
    fn latent_order_and_nearest_equal_the_matrix_path_exactly() {
        for hidden in [&[][..], &[24], &[24, 12]] {
            let (model, samples) = model_and_samples(hidden);
            let batch = model.predict_batch(&segments_to_matrix(&samples));
            let mut scratch = PredictScratch::default();
            for (sample, &cluster) in samples.iter().zip(&batch) {
                let x = Matrix::from_vec(1, BYTES * 8, bytes_to_features(sample));
                let z = model.vae().latent(&x);
                let order = model.order_packed(sample, &mut scratch).to_vec();
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&scratch.cur), bits(z.row(0)), "μ, hidden {hidden:?}");
                assert_eq!(order, model.kmeans().clusters_by_distance(z.row(0)));
                assert_eq!(model.predict_packed(sample, &mut scratch), cluster);
                // The float-signature adapters are the same kernel.
                assert_eq!(model.clusters_by_distance(x.row(0)), order);
                assert_eq!(model.predict(x.row(0)), cluster);
            }
        }
    }

    /// The resume clause: after a full call on a value zero-padded at
    /// the end, continuing over a segment's tail gives the μ and the
    /// cluster of a full call on that segment — at every split point
    /// (word-aligned or not, empty value, no tail), whatever the tail
    /// holds, and as often as asked.
    #[test]
    fn resumed_tail_equals_the_full_call_exactly() {
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for hidden in [&[][..], &[24], &[24, 12]] {
            let (model, samples) = model_and_samples(hidden);
            let (mut resumed, mut full) = (PredictScratch::default(), PredictScratch::default());
            for (i, sample) in samples.iter().enumerate() {
                for len in 0..=BYTES {
                    let mut padded = sample[..len].to_vec();
                    padded.resize(BYTES, 0);
                    model.order_packed(&padded, &mut resumed);
                    let tails = [
                        sample[len..].to_vec(),
                        vec![0; BYTES - len],
                        vec![0xFF; BYTES - len],
                    ];
                    // One full call serves all three segments.
                    for tail in tails {
                        let segment = [&sample[..len], &tail[..]].concat();
                        let expected = model.predict_packed(&segment, &mut full);
                        let got = model.resume_packed(&segment, len, &mut resumed);
                        assert_eq!(
                            bits(&resumed.cur),
                            bits(&full.cur),
                            "μ, hidden {hidden:?}, sample {i}, split at byte {len}"
                        );
                        assert_eq!(got, expected);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no full call on this scratch")]
    fn resume_without_a_full_call_rejected() {
        let (model, samples) = model_and_samples(&[24]);
        model.resume_packed(&samples[0], 8, &mut PredictScratch::default());
    }

    #[test]
    fn equal_distances_keep_cluster_index_order() {
        let (model, samples) = model_and_samples(&[24]);
        let twin = model.kmeans().centroids().row(2).to_vec();
        let mut centroids = model.kmeans().centroids().clone();
        for c in [0, 4, 5] {
            centroids.row_mut(c).copy_from_slice(&twin);
        }
        let tied = ClusterModel::from_parts(
            model.vae().clone(),
            crate::kmeans::KMeans::from_centroids(centroids),
        )
        .unwrap();
        let mut scratch = PredictScratch::default();
        for sample in &samples {
            let x = Matrix::from_vec(1, BYTES * 8, bytes_to_features(sample));
            let z = tied.vae().latent(&x);
            assert_eq!(
                tied.order_packed(sample, &mut scratch),
                tied.kmeans().clusters_by_distance(z.row(0))
            );
        }
    }

    #[test]
    #[should_panic(expected = "packed bytes for a 288-bit model")]
    fn wrong_input_width_rejected() {
        let (model, _) = model_and_samples(&[24]);
        model.predict_packed(&[0u8; BYTES - 1], &mut PredictScratch::default());
    }
}
