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
//!   `Matrix::matmul` does — it runs this same kernel, and a later
//!   layer's float inputs reach it through the same compaction); for
//!   bit inputs `1.0 * w == w`, so adding the row is the same value;
//! * the bias is added **after** the rows, then the activation is
//!   applied (`Activation::apply_biased`, which `Dense` runs too);
//! * output columns are independent, so computing only the μ half of
//!   the last encoder layer changes none of them;
//! * centroid distances use the reference's own `kmeans::dist2`, and
//!   equal distances keep ascending cluster index (the reference's
//!   stable sort); a NaN distance comes last, in both.
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
use crate::kernel::{compact_non_zero, Kernel};
use crate::kmeans::dist2;

/// `d` as a key whose unsigned order is the placement's distance order:
/// ascending, `-0.0` equal to `0.0`, NaN after every number (the
/// reference [`crate::kmeans::KMeans::clusters_by_distance`] puts it
/// last too).
fn distance_key(d: f32) -> u32 {
    // Adding 0.0 turns -0.0 into 0.0 and leaves every other value as is.
    let bits = (d + 0.0).to_bits();
    let key = if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    if d.is_nan() {
        u32::MAX
    } else {
        key
    }
}

/// Caller-owned working memory of the prediction kernel. Buffers grow
/// to the model's widths on first use and are reused afterwards.
#[derive(Debug, Default)]
pub struct PredictScratch {
    /// The instantiation this CPU runs, asked once per scratch.
    kernel: Kernel,
    /// First-layer sums of the last full call, before bias and
    /// activation — what [`ClusterModel::resume_packed`] continues.
    sums0: Vec<f32>,
    /// Activations of the layer just computed (finally μ).
    cur: Vec<f32>,
    /// Activations of the layer being computed.
    next: Vec<f32>,
    /// Non-zero entries of `cur`, compacted for the next layer's walk.
    inputs: Vec<(usize, f32)>,
    /// Each centroid's squared distance from μ as a [`distance_key`],
    /// with the cluster index in the low half: unique, and in the
    /// order the placement wants.
    keys: Vec<u64>,
    /// Cluster ids, nearest first.
    order: Vec<usize>,
}

impl PredictScratch {
    /// A scratch whose calls run the portable instantiation of the
    /// kernel whatever the CPU offers — what the tests hold against
    /// [`PredictScratch::default`], which runs the one [`kernel_name`]
    /// reports.
    #[cfg(test)]
    fn portable() -> Self {
        PredictScratch {
            kernel: Kernel::portable(),
            ..Self::default()
        }
    }
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
            cur, keys, order, ..
        } = scratch;
        let centroids = self.kmeans().centroids();
        keys.clear();
        keys.extend(
            (0..centroids.rows())
                .map(|c| u64::from(distance_key(dist2(centroids.row(c), cur))) << 32 | c as u64),
        );
        // Each cluster's place is the number of keys below its own:
        // (distance, index) order — the reference's stable sort — with
        // no comparator and no data-dependent branch.
        order.clear();
        order.resize(keys.len(), 0);
        for &own in keys.iter() {
            let place: usize = keys.iter().map(|&key| usize::from(key < own)).sum();
            order[place] = (own & 0xFFFF_FFFF) as usize;
        }
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
        let PredictScratch {
            kernel,
            sums0,
            next,
            ..
        } = &mut *scratch;
        assert_eq!(
            sums0.len(),
            self.layer_width(0),
            "resume: no full call on this scratch"
        );
        next.clear();
        next.extend_from_slice(sums0);
        kernel.add_rows(first.weights(), SetBits::new(bits, from), next);
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
        let PredictScratch {
            kernel,
            sums0,
            next,
            ..
        } = &mut *scratch;
        sums0.clear();
        sums0.resize(self.layer_width(0), 0.0);
        kernel.add_rows(first.weights(), SetBits::new(bits, 0), sums0);
        next.clear();
        next.extend_from_slice(sums0);
        self.finish_layers(scratch);
    }

    /// From the first layer's pre-bias sums in `scratch.next` to μ in
    /// `scratch.cur`: bias and activation, then the remaining layers.
    fn finish_layers(&self, scratch: &mut PredictScratch) {
        let layers = self.vae().encoder().layers();
        let PredictScratch {
            kernel,
            cur,
            next,
            inputs,
            ..
        } = scratch;
        for (i, layer) in layers.iter().enumerate() {
            if i > 0 {
                next.clear();
                next.resize(self.layer_width(i), 0.0);
                let inputs = compact_non_zero(cur, inputs);
                kernel.add_rows(layer.weights(), inputs.iter().copied(), next);
            }
            layer.activation().apply_biased(layer.bias(), next);
            std::mem::swap(cur, next);
        }
    }
}

/// Name of the kernel instantiation predictions and training run on
/// this CPU: `"avx512"`, `"avx2"` or `"portable"`.
pub fn kernel_name() -> &'static str {
    Kernel::detect().name()
}

/// The set bits of `bits[from..]` as layer inputs: `(index, 1.0)` in
/// ascending index, indexed from the start of `bits`. The constant
/// `1.0` lets the kernel's `1.0 * w` fold to `w` — the same value
/// either way.
#[derive(Clone)]
struct SetBits<'a> {
    bits: &'a [u8],
    /// The 8-byte word being walked.
    word: usize,
    /// Its bits not yet visited. A word at a time: running out of them
    /// is the branch the CPU cannot predict, and this takes it once
    /// per 64 bits, not per 8.
    rest: u64,
}

impl<'a> SetBits<'a> {
    fn new(bits: &'a [u8], from: usize) -> Self {
        let word = from / 8;
        // Drop the bytes of the first word that lie before `from`.
        let rest = load_word(bits, word).unwrap_or(0) & (u64::MAX >> (from % 8 * 8));
        SetBits { bits, word, rest }
    }
}

impl Iterator for SetBits<'_> {
    type Item = (usize, f32);

    #[inline(always)]
    fn next(&mut self) -> Option<(usize, f32)> {
        while self.rest == 0 {
            self.word += 1;
            self.rest = load_word(self.bits, self.word)?;
        }
        let lead = self.rest.leading_zeros() as usize;
        self.rest &= !(1 << (63 - lead));
        Some((self.word * 64 + lead, 1.0))
    }
}

/// Bytes `8 * word..` of `bits` (up to eight, zero-extended) as one
/// big-endian word — which keeps MSB-first: the highest set bit is the
/// lowest feature index. `None` past the end.
#[inline(always)]
fn load_word(bits: &[u8], word: usize) -> Option<u64> {
    let rest = bits.get(word * 8..).filter(|rest| !rest.is_empty())?;
    Some(match rest.get(..8) {
        Some(full) => u64::from_be_bytes(full.try_into().expect("eight bytes")),
        // Folded, not copied: a `memcpy` call inside the walk would
        // have the tile's sums spilled around it.
        None => rest.iter().fold(0, |w, &b| w << 8 | u64::from(b)) << (64 - 8 * rest.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{bytes_to_features, segments_to_matrix};
    use crate::dec::DecConfig;
    use crate::matrix::Matrix;
    use crate::rng::seeded;
    use crate::vae::{Vae, VaeConfig};
    use proptest::prelude::*;
    use rand::Rng;

    /// Not a whole number of 64-bit words, so the tail is covered too.
    const BYTES: usize = 36;

    /// Encoder shapes — hidden widths and latent width — that between
    /// them meet every tile of both instantiations: 64 and 128 are
    /// whole wide tiles, 72 and 40 a wide tile and a narrow one, 24,
    /// 20, 12, 10, 8, 7, 6 and 3 the narrow tiles down to one column.
    const SHAPES: [(&[usize], usize); 9] = [
        (&[], 6),
        (&[24], 6),
        (&[24, 12], 6),
        (&[64], 10),
        (&[128], 10),
        (&[72], 20),
        (&[8], 10),
        (&[64, 40], 20),
        (&[3], 7),
    ];

    /// A briefly trained model (non-zero biases) of the given encoder
    /// shape, and segments of every density to ask it about.
    fn model_and_samples(hidden: &[usize], latent_dim: usize) -> (ClusterModel, Vec<Vec<u8>>) {
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
                latent_dim,
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

    /// A scratch for each instantiation of the kernel this CPU runs.
    fn scratches() -> Vec<(&'static str, PredictScratch)> {
        Kernel::instantiations()
            .into_iter()
            .map(|kernel| {
                let scratch = PredictScratch {
                    kernel,
                    ..PredictScratch::default()
                };
                (kernel.name(), scratch)
            })
            .collect()
    }

    fn to_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// The contract of the module docs, checked where it is stated: μ
    /// itself — not just the cluster it leads to — is the `Matrix`
    /// path's to the last bit, at every shape and on both
    /// instantiations.
    #[test]
    fn latent_order_and_nearest_equal_the_matrix_path_exactly() {
        for (hidden, latent_dim) in SHAPES {
            let (model, samples) = model_and_samples(hidden, latent_dim);
            let batch = model.predict_batch(&segments_to_matrix(&samples));
            for (kernel, mut scratch) in scratches() {
                for (sample, &cluster) in samples.iter().zip(&batch) {
                    let x = Matrix::from_vec(1, BYTES * 8, bytes_to_features(sample));
                    let z = model.vae().latent(&x);
                    let order = model.order_packed(sample, &mut scratch).to_vec();
                    assert_eq!(
                        to_bits(&scratch.cur),
                        to_bits(z.row(0)),
                        "μ, hidden {hidden:?}, latent {latent_dim}, {kernel}"
                    );
                    assert_eq!(order, model.kmeans().clusters_by_distance(z.row(0)));
                    assert_eq!(model.predict_packed(sample, &mut scratch), cluster);
                    // The float-signature adapters are the same kernel.
                    assert_eq!(model.clusters_by_distance(x.row(0)), order);
                    assert_eq!(model.predict(x.row(0)), cluster);
                }
            }
        }
    }

    /// The resume clause: after a full call on a value zero-padded at
    /// the end, continuing over a segment's tail gives the μ and the
    /// cluster of a full call on that segment — at every split point
    /// (word-aligned or not, empty value, no tail), whatever the tail
    /// holds, and as often as asked; at every shape and on both
    /// instantiations.
    #[test]
    fn resumed_tail_equals_the_full_call_exactly() {
        for (hidden, latent_dim) in SHAPES {
            let (model, samples) = model_and_samples(hidden, latent_dim);
            for (kernel, mut resumed) in scratches() {
                // The full call it is held against is the portable one:
                // the two instantiations agree with each other as well.
                let mut full = PredictScratch::portable();
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
                                to_bits(&resumed.cur),
                                to_bits(&full.cur),
                                "μ, hidden {hidden:?}, latent {latent_dim}, {kernel}, \
                                 sample {i}, split at byte {len}"
                            );
                            assert_eq!(got, expected);
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever tiles a layer's width falls into, and whichever
        /// instantiation walks them: μ, order, cluster and resumed
        /// cluster are the `Matrix` path's.
        #[test]
        fn every_width_predicts_as_the_matrix_path_on_both_kernels(
            hidden in 1usize..=160,
            latent_dim in 1usize..=40,
            density in 0.0f32..1.0,
            split in 0usize..=BYTES,
            seed in any::<u64>(),
        ) {
            let mut rng = seeded(seed);
            let vae = Vae::new(
                VaeConfig {
                    input_dim: BYTES * 8,
                    hidden: vec![hidden],
                    latent_dim,
                    lr: 1e-3,
                    beta: 0.2,
                },
                &mut rng,
            );
            let segments: Vec<Vec<u8>> = (0..12)
                .map(|_| {
                    (0..BYTES)
                        .map(|_| {
                            (0..8).fold(0u8, |b, _| (b << 1) | u8::from(rng.gen::<f32>() < density))
                        })
                        .collect()
                })
                .collect();
            let centroids = vae.latent(&segments_to_matrix(&segments[..6]));
            let model =
                ClusterModel::from_parts(vae, crate::kmeans::KMeans::from_centroids(centroids))
                    .unwrap();
            let clusters = model.predict_batch(&segments_to_matrix(&segments));
            for (kernel, mut scratch) in scratches() {
                for (segment, &cluster) in segments.iter().zip(&clusters) {
                    let z = model
                        .vae()
                        .latent(&segments_to_matrix(std::slice::from_ref(segment)));
                    let order = model.kmeans().clusters_by_distance(z.row(0));
                    prop_assert_eq!(model.order_packed(segment, &mut scratch), &order[..], "{}", kernel);
                    prop_assert_eq!(to_bits(&scratch.cur), to_bits(z.row(0)), "μ, {}", kernel);
                    let mut padded = segment[..split].to_vec();
                    padded.resize(BYTES, 0);
                    model.order_packed(&padded, &mut scratch);
                    let resumed = model.resume_packed(segment, split, &mut scratch);
                    prop_assert_eq!(resumed, cluster, "{}", kernel);
                    prop_assert_eq!(to_bits(&scratch.cur), to_bits(z.row(0)), "resumed μ, {}", kernel);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no full call on this scratch")]
    fn resume_without_a_full_call_rejected() {
        let (model, samples) = model_and_samples(&[24], 6);
        model.resume_packed(&samples[0], 8, &mut PredictScratch::default());
    }

    #[test]
    fn equal_distances_keep_cluster_index_order() {
        let (model, samples) = model_and_samples(&[24], 6);
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

    /// NaN and infinite distances: a centroid with a NaN coordinate is
    /// at NaN from every sample, and one at `f32::MAX` at +∞. The order
    /// is the reference's — ties by index, +∞ after every number, NaN
    /// after +∞ — where a sort by `partial_cmp` has no total order.
    #[test]
    fn nan_distances_order_last_like_the_reference() {
        let (model, samples) = model_and_samples(&[24], 6);
        let mut centroids = model.kmeans().centroids().clone();
        let twin = centroids.row(2).to_vec();
        centroids.row_mut(6).copy_from_slice(&twin);
        centroids.row_mut(0)[1] = f32::NAN;
        centroids.row_mut(4).fill(f32::NAN);
        centroids.row_mut(3).fill(f32::MAX);
        let odd = ClusterModel::from_parts(
            model.vae().clone(),
            crate::kmeans::KMeans::from_centroids(centroids),
        )
        .unwrap();
        let mut scratch = PredictScratch::default();
        for sample in &samples {
            let x = Matrix::from_vec(1, BYTES * 8, bytes_to_features(sample));
            let z = odd.vae().latent(&x);
            let order = odd.order_packed(sample, &mut scratch).to_vec();
            assert_eq!(order, odd.kmeans().clusters_by_distance(z.row(0)));
            assert_eq!(order[4..], [3, 0, 4]);
        }
    }

    #[test]
    fn distance_keys_order_like_the_distances() {
        let ascending = [
            f32::NEG_INFINITY,
            -1.5,
            -f32::MIN_POSITIVE,
            0.0,
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
            f32::INFINITY,
        ];
        for pair in ascending.windows(2) {
            assert!(distance_key(pair[0]) < distance_key(pair[1]), "{pair:?}");
        }
        assert_eq!(distance_key(-0.0), distance_key(0.0));
        for nan in [f32::NAN, -f32::NAN] {
            assert_eq!(distance_key(nan), u32::MAX);
        }
    }

    #[test]
    #[should_panic(expected = "packed bytes for a 288-bit model")]
    fn wrong_input_width_rejected() {
        let (model, _) = model_and_samples(&[24], 6);
        model.predict_packed(&[0u8; BYTES - 1], &mut PredictScratch::default());
    }
}
