//! Fully-connected layer with cached forward state, backprop, and an
//! embedded Adam optimizer.

use crate::activation::Activation;
use crate::matrix::Matrix;
use crate::optim::Adam;
use crate::rng;
use rand::Rng;

/// A dense layer `y = act(x·W + b)` over batched row-vector inputs.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weights, `in_dim × out_dim`.
    w: Matrix,
    /// Bias, length `out_dim`.
    b: Vec<f32>,
    act: Activation,
    // --- training state ---
    w_grad: Matrix,
    b_grad: Vec<f32>,
    w_adam: Adam,
    b_adam: Adam,
    /// Cached input of the last forward pass.
    cache_x: Option<Matrix>,
    /// Cached output (post-activation) of the last forward pass.
    cache_y: Option<Matrix>,
}

impl Dense {
    /// He/Xavier-initialized layer.
    pub fn new<R: Rng>(
        in_dim: usize,
        out_dim: usize,
        act: Activation,
        lr: f32,
        rng: &mut R,
    ) -> Self {
        // He init for ReLU, Xavier otherwise.
        let std = match act {
            Activation::Relu => (2.0 / in_dim as f32).sqrt(),
            _ => (1.0 / in_dim as f32).sqrt(),
        };
        let mut w = Matrix::zeros(in_dim, out_dim);
        rng::fill_normal(rng, w.as_mut_slice(), std);
        Self {
            w,
            b: vec![0.0; out_dim],
            act,
            w_grad: Matrix::zeros(in_dim, out_dim),
            b_grad: vec![0.0; out_dim],
            w_adam: Adam::new(in_dim * out_dim, lr),
            b_adam: Adam::new(out_dim, lr),
            cache_x: None,
            cache_y: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// The layer activation.
    pub fn activation(&self) -> Activation {
        self.act
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Multiply-accumulate count of one forward pass over a batch of `n`
    /// rows — used by the energy model to convert training work into pJ.
    pub fn forward_macs(&self, n: usize) -> u64 {
        (n * self.w.rows() * self.w.cols()) as u64
    }

    /// Forward pass, caching state for backprop.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let y = self.forward_inference(x);
        self.cache_x = Some(x.clone());
        self.cache_y = Some(y.clone());
        y
    }

    /// Forward pass without caching (serving path).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        for r in 0..z.rows() {
            self.act.apply_biased(&self.b, z.row_mut(r));
        }
        z
    }

    /// Backward pass from the gradient w.r.t. this layer's *output*.
    /// Accumulates parameter gradients and returns the gradient w.r.t.
    /// the input.
    ///
    /// # Panics
    /// Panics if called before [`Dense::forward`].
    pub fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let y = self
            .cache_y
            .as_ref()
            .expect("Dense::backward before forward");
        let dz = self.preact_grad(y, d_out);
        self.backward_preact(&dz)
    }

    /// The gradient w.r.t. the *pre-activation* `z`, from the gradient
    /// w.r.t. this layer's output `y`.
    pub(crate) fn preact_grad(&self, y: &Matrix, d_out: &Matrix) -> Matrix {
        let act = self.act;
        d_out.zip(y, |g, yv| g * act.derivative_from_output(yv))
    }

    /// Backward pass from the gradient w.r.t. the *pre-activation* `z`.
    /// Lets callers fuse loss+activation gradients (e.g. sigmoid + BCE
    /// simplifies to `ŷ − x`).
    ///
    /// # Panics
    /// Panics if called before [`Dense::forward`].
    pub fn backward_preact(&mut self, dz: &Matrix) -> Matrix {
        let x = self
            .cache_x
            .take()
            .expect("Dense::backward_preact before forward");
        let dx = self.backward_preact_from(&x, dz);
        self.cache_x = Some(x);
        dx
    }

    /// [`Dense::backward_preact`] of a forward pass on `x` whose input
    /// the caller kept.
    pub(crate) fn backward_preact_from(&mut self, x: &Matrix, dz: &Matrix) -> Matrix {
        self.accumulate_preact(x, dz);
        dz.matmul_t(&self.w)
    }

    /// The parameter-gradient half of [`Dense::backward_preact_from`],
    /// for a layer whose input gradient nobody reads (a network's
    /// first). The weight gradient takes `xᵀ · dz` folded in place.
    pub(crate) fn accumulate_preact(&mut self, x: &Matrix, dz: &Matrix) {
        self.w_grad.add_t_matmul(x, dz);
        for (g, s) in self.b_grad.iter_mut().zip(dz.col_sums()) {
            *g += s;
        }
    }

    /// Zero accumulated gradients: every one `+0.0`, whatever it held
    /// (the in-place fold of the weight gradient starts there).
    pub fn zero_grad(&mut self) {
        self.w_grad.as_mut_slice().fill(0.0);
        self.b_grad.fill(0.0);
    }

    /// Apply one Adam step with the accumulated gradients, then zero
    /// them.
    pub fn step(&mut self) {
        self.w_adam
            .step(self.w.as_mut_slice(), self.w_grad.as_slice());
        self.b_adam.step(&mut self.b, &self.b_grad);
        self.zero_grad();
    }

    /// Read-only view of the weights (diagnostics/tests/persistence).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Read-only view of the bias.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Rebuild a layer from persisted parameters. The optimizer state
    /// starts fresh (persisted models are serving artifacts).
    ///
    /// # Panics
    /// Panics if `bias.len() != weights.cols()`.
    pub fn from_parts(weights: Matrix, bias: Vec<f32>, act: Activation) -> Self {
        assert_eq!(bias.len(), weights.cols(), "Dense::from_parts: bias width");
        let (in_dim, out_dim) = (weights.rows(), weights.cols());
        Self {
            w_grad: Matrix::zeros(in_dim, out_dim),
            b_grad: vec![0.0; out_dim],
            w_adam: Adam::new(in_dim * out_dim, 1e-3),
            b_adam: Adam::new(out_dim, 1e-3),
            cache_x: None,
            cache_y: None,
            w: weights,
            b: bias,
            act,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = seeded(1);
        let mut layer = Dense::new(3, 2, Activation::Linear, 0.01, &mut rng);
        let x = Matrix::zeros(4, 3);
        let y = layer.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 2));
        // Zero input, zero bias -> zero output.
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradient_check_linear_mse() {
        // Numerically verify dW for a tiny layer under L = ||y - t||²/2.
        let mut rng = seeded(2);
        let mut layer = Dense::new(2, 2, Activation::Tanh, 0.01, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![0.3, -0.7]);
        let t = Matrix::from_vec(1, 2, vec![0.1, 0.4]);

        let loss_of = |layer: &Dense| {
            let y = layer.forward_inference(&x);
            0.5 * y
                .as_slice()
                .iter()
                .zip(t.as_slice())
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f32>()
        };

        let y = layer.forward(&x);
        let d_out = y.zip(&t, |a, b| a - b);
        layer.backward(&d_out);

        let analytic = layer.w_grad.clone();
        let h = 1e-3f32;
        for r in 0..2 {
            for c in 0..2 {
                let orig = layer.w.get(r, c);
                layer.w.set(r, c, orig + h);
                let lp = loss_of(&layer);
                layer.w.set(r, c, orig - h);
                let lm = loss_of(&layer);
                layer.w.set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * h);
                assert!(
                    (numeric - analytic.get(r, c)).abs() < 1e-3,
                    "dW[{r}{c}]: numeric={numeric} analytic={}",
                    analytic.get(r, c)
                );
            }
        }
    }

    #[test]
    fn layer_learns_linear_map() {
        // Fit y = x·A for a fixed A with MSE; loss must drop sharply.
        let mut rng = seeded(3);
        let mut layer = Dense::new(2, 1, Activation::Linear, 0.05, &mut rng);
        let data: Vec<(Matrix, f32)> = (0..64)
            .map(|i| {
                let a = (i % 8) as f32 / 8.0 - 0.5;
                let b = (i / 8) as f32 / 8.0 - 0.5;
                (Matrix::from_vec(1, 2, vec![a, b]), 2.0 * a - 3.0 * b)
            })
            .collect();
        let mut first = None;
        let mut last = 0.0;
        for epoch in 0..300 {
            let mut total = 0.0;
            for (x, t) in &data {
                let y = layer.forward(x);
                let err = y.get(0, 0) - t;
                total += err * err;
                let d = Matrix::from_vec(1, 1, vec![err]);
                layer.backward(&d);
                layer.step();
            }
            if epoch == 0 {
                first = Some(total);
            }
            last = total;
        }
        assert!(last < first.unwrap() * 0.01, "first={first:?} last={last}");
    }

    #[test]
    fn macs_and_params() {
        let mut rng = seeded(4);
        let layer = Dense::new(10, 5, Activation::Relu, 0.01, &mut rng);
        assert_eq!(layer.param_count(), 55);
        assert_eq!(layer.forward_macs(3), 150);
    }

    #[test]
    fn zero_grad_clears_non_finite_gradients() {
        let mut rng = seeded(6);
        let mut layer = Dense::new(2, 2, Activation::Linear, 0.01, &mut rng);
        layer.forward(&Matrix::from_vec(1, 2, vec![f32::INFINITY, 1.0]));
        layer.backward(&Matrix::from_vec(1, 2, vec![1.0, -1.0]));
        assert!(layer.w_grad.as_slice().iter().any(|g| !g.is_finite()));
        layer.zero_grad();
        let zero = 0.0f32.to_bits();
        assert!(
            layer.w_grad.as_slice().iter().all(|g| g.to_bits() == zero),
            "{:?}",
            layer.w_grad.as_slice()
        );
        assert!(layer.b_grad.iter().all(|g| g.to_bits() == zero));
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_without_forward_panics() {
        let mut rng = seeded(5);
        let mut layer = Dense::new(2, 2, Activation::Linear, 0.01, &mut rng);
        layer.backward(&Matrix::zeros(1, 2));
    }
}
