//! A sequential stack of [`Dense`] layers.

use crate::activation::Activation;
use crate::dense::Dense;
use crate::matrix::Matrix;
use rand::Rng;
use std::borrow::Cow;

/// A multi-layer perceptron.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    /// Every layer's output of the last [`Mlp::forward`], held once:
    /// it is the next layer's input and its own activation's
    /// derivative.
    outputs: Vec<Matrix>,
    /// [`fingerprint`] of the last [`Mlp::forward`]'s input, which a
    /// debug build takes and holds the backward pass's `x` to.
    input: u64,
}

impl Mlp {
    /// Build from a layer-size list `dims` (e.g. `[784, 256, 20]`) with
    /// `hidden_act` on all but the last layer and `out_act` on the last.
    ///
    /// # Panics
    /// Panics if `dims` has fewer than two entries.
    pub fn new<R: Rng>(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        lr: f32,
        rng: &mut R,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "Mlp::new: need at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, pair)| {
                let act = if i + 2 == dims.len() {
                    out_act
                } else {
                    hidden_act
                };
                Dense::new(pair[0], pair[1], act, lr, rng)
            })
            .collect();
        Self::from_checked_layers(layers)
    }

    /// An `Mlp` over layers whose widths chain, before any forward.
    fn from_checked_layers(layers: Vec<Dense>) -> Self {
        Self {
            layers,
            outputs: Vec::new(),
            input: 0,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("Mlp has layers").in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("Mlp has layers").out_dim()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Multiply-accumulates of one forward pass over `n` rows.
    pub fn forward_macs(&self, n: usize) -> u64 {
        self.layers.iter().map(|l| l.forward_macs(n)).sum()
    }

    /// Forward for training: every layer's output is kept for the
    /// backward pass, and the last is returned.
    pub fn forward(&mut self, x: &Matrix) -> &Matrix {
        if cfg!(debug_assertions) {
            self.input = fingerprint(x);
        }
        self.outputs.clear();
        for layer in &self.layers {
            let y = layer.forward_inference(self.outputs.last().unwrap_or(x));
            self.outputs.push(y);
        }
        self.outputs.last().expect("Mlp has layers")
    }

    /// Forward without caches (serving path).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let (first, rest) = self.layers.split_first().expect("Mlp has layers");
        rest.iter().fold(first.forward_inference(x), |h, layer| {
            layer.forward_inference(&h)
        })
    }

    /// Backward where the last layer receives a *pre-activation*
    /// gradient (fused loss+activation), earlier layers the usual chain.
    /// Returns the gradient w.r.t. the network input.
    ///
    /// `x` must be the matrix the last [`Mlp::forward`] ran on: the
    /// first layer's gradients are taken from it, and a different
    /// matrix of the same shape would make them wrong without an error
    /// in a release build (a debug build asserts it).
    ///
    /// # Panics
    /// Panics if called before [`Mlp::forward`].
    pub fn backward_preact_last(&mut self, x: &Matrix, dz_last: &Matrix) -> Matrix {
        let dz = self.backward_to_first(x, dz_last);
        self.layers[0].backward_preact_from(x, &dz)
    }

    /// [`Mlp::backward_preact_last`] for a network whose input is data:
    /// the same parameter gradients, and no input gradient computed.
    pub(crate) fn accumulate_preact_last(&mut self, x: &Matrix, dz_last: &Matrix) {
        let dz = self.backward_to_first(x, dz_last);
        self.layers[0].accumulate_preact(x, &dz);
    }

    /// Backward through every layer above the first; returns the first
    /// layer's pre-activation gradient.
    ///
    /// # Panics
    /// Panics if called before [`Mlp::forward`].
    fn backward_to_first<'a>(&mut self, x: &Matrix, dz_last: &'a Matrix) -> Cow<'a, Matrix> {
        assert_eq!(
            self.outputs.len(),
            self.layers.len(),
            "Mlp::backward before forward"
        );
        debug_assert_eq!(
            fingerprint(x),
            self.input,
            "Mlp::backward on another input than the last forward's"
        );
        let mut dz = Cow::Borrowed(dz_last);
        for i in (1..self.layers.len()).rev() {
            let below = &self.outputs[i - 1];
            let grad = self.layers[i].backward_preact_from(below, &dz);
            dz = Cow::Owned(self.layers[i - 1].preact_grad(below, &grad));
        }
        dz
    }

    /// Adam step on every layer.
    pub fn step(&mut self) {
        for layer in &mut self.layers {
            layer.step();
        }
    }

    /// Zero all gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// The layer stack (diagnostics/persistence).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Rebuild from persisted layers, validating that adjacent layer
    /// dimensions chain.
    pub fn from_layers(layers: Vec<Dense>) -> Result<Self, String> {
        if layers.is_empty() {
            return Err("Mlp::from_layers: no layers".into());
        }
        for pair in layers.windows(2) {
            if pair[0].out_dim() != pair[1].in_dim() {
                return Err(format!(
                    "Mlp::from_layers: layer widths do not chain ({} -> {})",
                    pair[0].out_dim(),
                    pair[1].in_dim()
                ));
            }
        }
        Ok(Self::from_checked_layers(layers))
    }
}

/// A cheap hash (FNV-1a over 32-bit words) of `x`'s shape and bits, to
/// tell one input from another.
fn fingerprint(x: &Matrix) -> u64 {
    let words = [x.rows() as u32, x.cols() as u32].into_iter();
    words
        .chain(x.as_slice().iter().map(|v| v.to_bits()))
        .fold(0xcbf2_9ce4_8422_2325, |h, word| {
            (h ^ u64::from(word)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn shapes_chain() {
        let mut rng = seeded(1);
        let mlp = Mlp::new(
            &[8, 4, 2],
            Activation::Relu,
            Activation::Linear,
            0.01,
            &mut rng,
        );
        assert_eq!(mlp.in_dim(), 8);
        assert_eq!(mlp.out_dim(), 2);
        assert_eq!(mlp.param_count(), 8 * 4 + 4 + 4 * 2 + 2);
        let y = mlp.forward_inference(&Matrix::zeros(3, 8));
        assert_eq!((y.rows(), y.cols()), (3, 2));
    }

    #[test]
    fn learns_xor() {
        // XOR is the canonical non-linear sanity check.
        let mut rng = seeded(7);
        let mut mlp = Mlp::new(
            &[2, 8, 1],
            Activation::Tanh,
            Activation::Sigmoid,
            0.05,
            &mut rng,
        );
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let t = [0.0f32, 1.0, 1.0, 0.0];
        for _ in 0..800 {
            let y = mlp.forward(&x);
            // Fused sigmoid+BCE gradient: dz = y - t.
            let dz = Matrix::from_fn(4, 1, |r, _| y.get(r, 0) - t[r]);
            mlp.backward_preact_last(&x, &dz);
            mlp.step();
        }
        let y = mlp.forward_inference(&x);
        for (r, &target) in t.iter().enumerate() {
            let out = y.get(r, 0);
            assert!(
                (out - target).abs() < 0.2,
                "xor row {r}: out={out} target={target}"
            );
        }
    }

    #[test]
    fn inference_matches_forward() {
        let mut rng = seeded(3);
        let mut mlp = Mlp::new(
            &[4, 3, 2],
            Activation::Relu,
            Activation::Sigmoid,
            0.01,
            &mut rng,
        );
        let x = Matrix::from_fn(2, 4, |r, c| (r + c) as f32 * 0.1);
        let a = mlp.forward(&x).clone();
        let b = mlp.forward_inference(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn parameters_only_backward_steps_the_same_weights() {
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for hidden in [&[][..], &[12], &[12, 8]] {
            let dims = [&[10][..], hidden, &[6]].concat();
            let mut rng = seeded(11);
            let mut full = Mlp::new(&dims, Activation::Relu, Activation::Linear, 0.01, &mut rng);
            let mut params_only = full.clone();
            let untrained = full.layers()[0].weights().clone();
            // Zeros, ones and negatives, so the zero-skipping branches run.
            let x = Matrix::from_fn(5, 10, |r, c| ((r * 7 + c * 3) % 4) as f32 - 1.0);
            for round in 0..3 {
                let dz = full.forward(&x).map(|v| v - 0.25);
                assert_eq!(params_only.forward(&x).map(|v| v - 0.25), dz);
                let dx = full.backward_preact_last(&x, &dz);
                assert_eq!((dx.rows(), dx.cols()), (5, 10));
                params_only.accumulate_preact_last(&x, &dz);
                full.step();
                params_only.step();
                for (l, (a, b)) in full.layers().iter().zip(params_only.layers()).enumerate() {
                    assert_eq!(
                        bits(a.weights().as_slice()),
                        bits(b.weights().as_slice()),
                        "hidden {hidden:?} round {round} layer {l}: weights"
                    );
                    assert_eq!(
                        bits(a.bias()),
                        bits(b.bias()),
                        "hidden {hidden:?} round {round} layer {l}: bias"
                    );
                }
            }
            assert_ne!(
                &untrained,
                full.layers()[0].weights(),
                "hidden {hidden:?}: the first layer trained"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "another input than the last forward's")]
    fn backward_on_another_input_is_caught_in_debug() {
        let mut rng = seeded(5);
        let mut mlp = Mlp::new(
            &[3, 2],
            Activation::Relu,
            Activation::Linear,
            0.01,
            &mut rng,
        );
        let x = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let dz = mlp.forward(&x).clone();
        mlp.backward_preact_last(&x.map(|v| v + 1.0), &dz);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn single_dim_rejected() {
        let mut rng = seeded(1);
        Mlp::new(&[4], Activation::Relu, Activation::Linear, 0.01, &mut rng);
    }
}
