//! The serving model and its single-sample prediction kernel: packed
//! bits in, clusters out.
//!
//! After training, the paper keeps "only the encoder part of the VAE and
//! the K-means clustering models" (§3). A [`Placer`] is exactly that:
//! the encoder's layers up to μ as plain weights, bias and activation,
//! and the centroids — no decoder, no log σ² columns, no optimizer state
//! ([`crate::dec::ClusterModel::placer`] compiles one from a trained
//! model, [`crate::persist`] writes and reads it). The PNW baseline's
//! PCA + K-means is a placer too: one linear layer
//! ([`crate::pca::Pca::placer`]).
//!
//! Every write (Algorithm 1) and every recycle (Algorithm 2) asks the
//! [`Placer`] about *one* segment whose features are bits (§3.2), so
//! this path takes the bits as they sit in memory — MSB-first bytes,
//! the layout [`crate::data::bytes_to_features`] defines — and pays per
//! *set* bit instead of per feature. All working memory is a
//! caller-owned [`PredictScratch`]: after the first call with a given
//! model no call allocates.
//!
//! # Summation-order contract
//!
//! The batched `Matrix` path (`Vae::latent` + `KMeans`; for a PCA
//! placer, `x.matmul(W)` plus the bias `−mean·W` + `KMeans`, not
//! `Pca::transform`'s `(x − mean)·W`, which rounds elsewhere) stays for
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
//! * output columns are independent, so walking the μ layer over one
//!   power-of-two tile — its weights widened with zero columns when
//!   the placer is built (μ = 10 columns: one 16-wide tile, not an 8-
//!   and a 2-wide one) — and dropping the padding columns changes none
//!   of μ's;
//! * centroid distances are the reference's `kmeans::dist2`, bit for
//!   bit: the serving kernel asks the same lane scorer as `KMeans`
//!   (the `kmeans` module's lane clause), and equal distances keep
//!   ascending cluster index; a NaN distance comes last.
//!
//! ## Resume clause
//!
//! The first layer's pre-bias sums are a left fold over the set bits in
//! ascending index, so the fold over a prefix of the input is an exact
//! intermediate of the fold over the whole input. A full call leaves
//! those sums in the scratch; when its input was all zero from byte `n`
//! on (a value zero-padded at the end), [`Placer::resume_packed`]
//! continues the fold over the set bits of bytes `n..` of a segment
//! that starts with the same `n` bytes and arrives at the full call's
//! additions in the full call's order: μ and the cluster are those of
//! `predict_packed` on the whole segment, bit for bit, for the rows of
//! the tail alone.

use crate::activation::Activation;
use crate::bits::{set_bit_indices, MAX_INPUT_BITS};
use crate::kernel::{compact_non_zero, Kernel, NonZero};
use crate::kmeans::KMeans;
use crate::matrix::Matrix;
use crate::persist::PersistError;

/// Caller-owned working memory of the prediction kernel. Buffers grow
/// to the model's widths on first use and are reused afterwards.
#[derive(Debug, Default)]
pub struct PredictScratch {
    /// The instantiation this CPU runs, asked once per scratch.
    kernel: Kernel,
    /// First-layer sums of the last full call, before bias and
    /// activation — what [`Placer::resume_packed`] continues.
    sums0: Vec<f32>,
    /// Activations of the layer just computed (finally μ).
    cur: Vec<f32>,
    /// Activations of the layer being computed.
    next: Vec<f32>,
    /// Indices of the input's set bits, for the first layer's walk.
    set: Vec<u16>,
    /// Non-zero entries of `cur`, compacted for the next layer's walk.
    inputs: NonZero,
    /// The cluster scorer's keys, one per lane; sized at the first full
    /// call, so a ranking never allocates.
    keys: Vec<u64>,
    /// Cluster ids, nearest first; sized like `keys`.
    order: Vec<usize>,
}

impl PredictScratch {
    /// A scratch whose calls run `kernel` whatever the CPU detects —
    /// what the tests hold each instantiation against
    /// [`PredictScratch::default`], which runs the one [`kernel_name`]
    /// reports.
    #[cfg(test)]
    pub(crate) fn on(kernel: Kernel) -> Self {
        PredictScratch {
            kernel,
            ..Self::default()
        }
    }
}

/// One encoder layer as served: `act(x·W + b)`.
#[derive(Debug, Clone)]
pub(crate) struct Layer {
    /// `in × out` — for the μ layer, `out` is μ's width rounded up to
    /// a power of two, the columns past μ zero.
    pub(crate) weights: Matrix,
    /// One per served output column: μ's width for the μ layer.
    pub(crate) bias: Vec<f32>,
    pub(crate) activation: Activation,
}

/// The serving model: the trained encoder's layers up to μ and the
/// K-means centroids — what the paper keeps after training.
#[derive(Debug, Clone)]
pub struct Placer {
    /// Input to μ; the widths chain.
    pub(crate) layers: Vec<Layer>,
    /// The centroids, `k × μ`, with the lane blocks the scorer reads.
    pub(crate) kmeans: KMeans,
}

impl Placer {
    /// A placer of `(weights, bias, activation)` layers, input to μ,
    /// each `weights` as wide as its `bias`, and the centroids in μ's
    /// space. Refused unless it can serve: at least one layer and one
    /// cluster, widths that chain, no zero width, a whole number of
    /// input bytes up to [`MAX_INPUT_BITS`] bits and centroids as wide
    /// as μ.
    pub(crate) fn new(
        layers: Vec<(Matrix, Vec<f32>, Activation)>,
        kmeans: KMeans,
    ) -> Result<Self, PersistError> {
        let mut width = layers.first().map_or(0, |(weights, _, _)| weights.rows());
        if width == 0 || !width.is_multiple_of(8) {
            return Err(PersistError::InputNotWholeBytes(width));
        }
        if width > MAX_INPUT_BITS {
            return Err(PersistError::InputTooWide(width));
        }
        for (i, (weights, bias, _)) in layers.iter().enumerate() {
            if bias.len() != weights.cols() || weights.cols() == 0 {
                return Err(PersistError::BadLength(bias.len() as u64));
            }
            if weights.rows() != width {
                return Err(PersistError::LayersDoNotChain {
                    layer: i,
                    inputs: weights.rows(),
                    expected: width,
                });
            }
            width = weights.cols();
        }
        if kmeans.k() == 0 {
            return Err(PersistError::NoClusters);
        }
        if kmeans.centroids().cols() != width {
            return Err(PersistError::CentroidWidth {
                centroids: kmeans.centroids().cols(),
                latent: width,
            });
        }
        let last = layers.len() - 1;
        let layers = layers
            .into_iter()
            .enumerate()
            .map(|(i, (mut weights, bias, activation))| {
                if i == last {
                    let mut tile = Matrix::zeros(weights.rows(), width.next_power_of_two());
                    for r in 0..weights.rows() {
                        tile.row_mut(r)[..width].copy_from_slice(weights.row(r));
                    }
                    weights = tile;
                }
                Layer {
                    weights,
                    bias,
                    activation,
                }
            })
            .collect();
        Ok(Self { layers, kmeans })
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.kmeans.k()
    }

    /// The widths from the input through every layer to μ: input bits
    /// first, μ's width last.
    pub fn widths(&self) -> Vec<usize> {
        let mut widths = vec![self.input_bits()];
        widths.extend(self.layers.iter().map(|l| l.bias.len()));
        widths
    }

    /// Input width in bits (a whole number of bytes).
    pub fn input_bits(&self) -> usize {
        self.layers[0].weights.rows()
    }

    /// Nearest cluster of one sample given as packed bits
    /// (`input_bits / 8` MSB-first bytes).
    ///
    /// # Panics
    /// Panics if `bits` is not exactly the model's input width.
    pub fn predict_packed(&self, bits: &[u8], scratch: &mut PredictScratch) -> usize {
        self.latent_packed(bits, scratch);
        self.nearest(scratch)
    }

    /// All clusters ordered nearest-first for one packed-bit sample —
    /// the DAP's fallback order. The slice lives in `scratch`.
    ///
    /// # Panics
    /// Panics if `bits` is not exactly the model's input width.
    pub fn order_packed<'s>(&self, bits: &[u8], scratch: &'s mut PredictScratch) -> &'s [usize] {
        self.latent_packed(bits, scratch);
        self.order_last(scratch)
    }

    /// All clusters ordered nearest-first for the sample of the last
    /// full or resumed call on `scratch`, ranked from the μ that call
    /// left there: [`Placer::order_packed`]'s order without walking the
    /// input again. Its first cluster is the one that call returned. The
    /// slice lives in `scratch`.
    ///
    /// # Panics
    /// Panics if `scratch` holds no μ of this model's width.
    pub fn order_last<'s>(&self, scratch: &'s mut PredictScratch) -> &'s [usize] {
        let PredictScratch {
            kernel,
            cur,
            keys,
            order,
            ..
        } = scratch;
        self.kmeans.lanes().order(*kernel, cur, keys, order);
        order
    }

    /// Nearest cluster of `bits`, continuing the last full call on
    /// `scratch` instead of starting over: that call's input must have
    /// been `bits[..from]` followed by zero bytes. Only the set bits of
    /// `bits[from..]` are visited; the result is
    /// [`Placer::predict_packed`]'s on all of `bits` (the module
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
        let first = &self.layers[0].weights;
        let PredictScratch {
            kernel,
            sums0,
            next,
            set,
            ..
        } = &mut *scratch;
        assert_eq!(
            sums0.len(),
            first.cols(),
            "resume: no full call on this scratch"
        );
        next.clear();
        next.extend_from_slice(sums0);
        kernel.add_set_rows(first, set_bit_indices(*kernel, bits, from, set), next);
        self.finish_layers(scratch);
        self.nearest(scratch)
    }

    /// The nearest cluster to μ in `scratch.cur`.
    fn nearest(&self, scratch: &PredictScratch) -> usize {
        self.kmeans.lanes().nearest(scratch.kernel, &scratch.cur).0
    }

    fn check_width(&self, bits: &[u8]) {
        assert_eq!(
            bits.len() * 8,
            self.input_bits(),
            "predict: {} packed bytes for a {}-bit model",
            bits.len(),
            self.input_bits()
        );
    }

    /// Encoder μ of one packed-bit sample, left in `scratch.cur`; the
    /// first layer's pre-bias sums stay in `scratch.sums0`.
    fn latent_packed(&self, bits: &[u8], scratch: &mut PredictScratch) {
        self.check_width(bits);
        let first = &self.layers[0].weights;
        let PredictScratch {
            kernel,
            sums0,
            next,
            set,
            keys,
            order,
            ..
        } = &mut *scratch;
        self.kmeans.lanes().reserve(keys, order);
        sums0.clear();
        sums0.resize(first.cols(), 0.0);
        kernel.add_set_rows(first, set_bit_indices(*kernel, bits, 0, set), sums0);
        next.clear();
        next.extend_from_slice(sums0);
        self.finish_layers(scratch);
    }

    /// From the first layer's pre-bias sums in `scratch.next` to μ in
    /// `scratch.cur`: bias and activation, then the remaining layers.
    /// Each layer's sums are as wide as its weights; the columns past
    /// its bias — the μ layer's padding — are dropped before the bias.
    fn finish_layers(&self, scratch: &mut PredictScratch) {
        let PredictScratch {
            kernel,
            cur,
            next,
            inputs,
            ..
        } = scratch;
        for (i, layer) in self.layers.iter().enumerate() {
            if i > 0 {
                next.clear();
                next.resize(layer.weights.cols(), 0.0);
                let (idx, val) = compact_non_zero(*kernel, cur, inputs);
                let inputs = idx.iter().zip(val).map(|(&i, &a)| (i as usize, a));
                kernel.add_rows(&layer.weights, inputs, next);
            }
            next.truncate(layer.bias.len());
            layer.activation.apply_biased(*kernel, &layer.bias, next);
            std::mem::swap(cur, next);
        }
    }
}

/// Name of the kernel instantiation predictions and training run on
/// this CPU: `"avx512+vbmi2"` (AVX-512 with the VBMI2 set-bit decoder),
/// `"avx512"`, `"avx2"` or `"portable"`.
pub fn kernel_name() -> &'static str {
    Kernel::detect().name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{bytes_to_features, segments_to_matrix};
    use crate::dec::{ClusterModel, DecConfig};
    use crate::kmeans::distance_key;
    use crate::persist::Persist;
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
        let bits = crate::bits::BitMatrix::from_segments(&samples);
        let (model, _) = ClusterModel::train(&cfg, &bits, None, &mut rng);
        (model, samples)
    }

    /// A scratch for each instantiation of the kernel this CPU runs.
    fn scratches() -> Vec<(&'static str, PredictScratch)> {
        Kernel::instantiations()
            .into_iter()
            .map(|kernel| (kernel.name(), PredictScratch::on(kernel)))
            .collect()
    }

    fn to_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// The contract of the module docs, checked where it is stated: μ
    /// itself — not just the cluster it leads to — is the `Matrix`
    /// path's to the last bit, at every shape and on both
    /// instantiations, from the compiled placer and from the one its
    /// bytes load back to (the μ layer written at μ's width and
    /// widened again).
    #[test]
    fn latent_order_and_nearest_equal_the_matrix_path_exactly() {
        for (hidden, latent_dim) in SHAPES {
            let (model, samples) = model_and_samples(hidden, latent_dim);
            let batch = model.predict_batch(&segments_to_matrix(&samples));
            let compiled = model.placer();
            let loaded = Placer::from_bytes(&compiled.to_bytes()).unwrap();
            for placer in [compiled, loaded] {
                for (kernel, mut scratch) in scratches() {
                    for (sample, &cluster) in samples.iter().zip(&batch) {
                        let z = model
                            .vae()
                            .latent(&segments_to_matrix(std::slice::from_ref(sample)));
                        let order = placer.order_packed(sample, &mut scratch).to_vec();
                        assert_eq!(
                            to_bits(&scratch.cur),
                            to_bits(z.row(0)),
                            "μ, hidden {hidden:?}, latent {latent_dim}, {kernel}"
                        );
                        assert_eq!(order, model.kmeans().clusters_by_distance(z.row(0)));
                        assert_eq!(placer.predict_packed(sample, &mut scratch), cluster);
                        // Ranked from the μ the nearest-only call left.
                        assert_eq!(placer.order_last(&mut scratch), order, "{kernel}");
                    }
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
            let model = model.placer();
            for (kernel, mut resumed) in scratches() {
                // The full call it is held against is the portable one:
                // the two instantiations agree with each other as well.
                let mut full = PredictScratch::on(Kernel::portable());
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
                ClusterModel::from_parts(vae, crate::kmeans::KMeans::from_centroids(centroids));
            let clusters = model.predict_batch(&segments_to_matrix(&segments));
            let placer = model.placer();
            for (kernel, mut scratch) in scratches() {
                for (segment, &cluster) in segments.iter().zip(&clusters) {
                    let z = model
                        .vae()
                        .latent(&segments_to_matrix(std::slice::from_ref(segment)));
                    let order = model.kmeans().clusters_by_distance(z.row(0));
                    prop_assert_eq!(placer.order_packed(segment, &mut scratch), &order[..], "{}", kernel);
                    prop_assert_eq!(to_bits(&scratch.cur), to_bits(z.row(0)), "μ, {}", kernel);
                    let mut padded = segment[..split].to_vec();
                    padded.resize(BYTES, 0);
                    placer.order_packed(&padded, &mut scratch);
                    let resumed = placer.resume_packed(segment, split, &mut scratch);
                    prop_assert_eq!(resumed, cluster, "{}", kernel);
                    prop_assert_eq!(to_bits(&scratch.cur), to_bits(z.row(0)), "resumed μ, {}", kernel);
                }
            }
        }
    }

    /// A model of [`model_and_samples`]' `[24]`, 6 shape, trained once.
    fn shared_model() -> &'static (ClusterModel, Vec<Vec<u8>>) {
        static MODEL: std::sync::OnceLock<(ClusterModel, Vec<Vec<u8>>)> =
            std::sync::OnceLock::new();
        MODEL.get_or_init(|| model_and_samples(&[24], 6))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever non-finite entries the centroids hold — a NaN, ±∞,
        /// or `f32::MAX`s whose distance overflows to +∞, in any mix,
        /// all clusters' included — the nearest cluster is the first of
        /// the order, and a resumed call names it too: a placement and
        /// the tag of the segment it wrote cannot disagree.
        #[test]
        fn nearest_is_the_first_of_the_order_whatever_the_distances(
            poison in proptest::collection::vec(0u8..5, 7),
            at in 0usize..6,
            sample in 0usize..96,
            split in 0usize..=BYTES,
        ) {
            let (model, samples) = shared_model();
            let mut centroids = model.kmeans().centroids().clone();
            for (c, kind) in poison.iter().enumerate() {
                let row = centroids.row_mut(c);
                match kind {
                    0 => row[at] = f32::NAN,
                    1 => row[at] = f32::INFINITY,
                    2 => row[at] = f32::NEG_INFINITY,
                    3 => row.fill(f32::MAX),
                    _ => {}
                }
            }
            let odd = ClusterModel::from_parts(
                model.vae().clone(),
                crate::kmeans::KMeans::from_centroids(centroids),
            )
            .placer();
            let segment = &samples[sample];
            let mut padded = segment[..split].to_vec();
            padded.resize(BYTES, 0);
            for (kernel, mut scratch) in scratches() {
                let first = odd.order_packed(segment, &mut scratch)[0];
                prop_assert_eq!(odd.predict_packed(segment, &mut scratch), first, "{}", kernel);
                prop_assert_eq!(odd.order_last(&mut scratch)[0], first, "{}", kernel);
                odd.order_packed(&padded, &mut scratch);
                prop_assert_eq!(odd.resume_packed(segment, split, &mut scratch), first, "{}", kernel);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no full call on this scratch")]
    fn resume_without_a_full_call_rejected() {
        let (model, samples) = model_and_samples(&[24], 6);
        model
            .placer()
            .resume_packed(&samples[0], 8, &mut PredictScratch::default());
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
        );
        let placer = tied.placer();
        let mut scratch = PredictScratch::default();
        for sample in &samples {
            let x = Matrix::from_vec(1, BYTES * 8, bytes_to_features(sample));
            let z = tied.vae().latent(&x);
            assert_eq!(
                placer.order_packed(sample, &mut scratch),
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
        );
        let placer = odd.placer();
        let mut scratch = PredictScratch::default();
        for sample in &samples {
            let x = Matrix::from_vec(1, BYTES * 8, bytes_to_features(sample));
            let z = odd.vae().latent(&x);
            let order = placer.order_packed(sample, &mut scratch).to_vec();
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
        model
            .placer()
            .predict_packed(&[0u8; BYTES - 1], &mut PredictScratch::default());
    }
}
