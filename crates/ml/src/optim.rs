//! The Adam optimizer (the paper's LSTM snippet compiles with
//! `optimizer='adam'`).

/// Adam state for one parameter tensor (flattened).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Standard Adam with the usual defaults (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(param_len: usize, lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; param_len],
            v: vec![0.0; param_len],
        }
    }

    /// Learning rate in effect.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Apply one Adam update: `params -= lr * m̂ / (sqrt(v̂) + ε)`.
    ///
    /// # Panics
    /// Panics if `params`/`grads` length differs from the state length.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len(), "Adam: param length changed");
        assert_eq!(params.len(), grads.len(), "Adam: grad length mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x-3)² with Adam; must converge near 3.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut adam = Adam::new(1, 0.1);
        let mut x = [0.0f32];
        for _ in 0..500 {
            let g = [2.0 * (x[0] - 3.0)];
            adam.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 0.05, "x={}", x[0]);
    }

    #[test]
    fn adam_first_step_has_unit_scale() {
        // Bias correction makes the first step ≈ lr regardless of grad
        // magnitude.
        let mut adam = Adam::new(1, 0.5);
        let mut x = [0.0f32];
        adam.step(&mut x, &[1e-4]);
        assert!((x[0] + 0.5).abs() < 1e-2, "x={}", x[0]);
    }

    #[test]
    #[should_panic(expected = "grad length mismatch")]
    fn mismatched_grads_panic() {
        let mut adam = Adam::new(2, 0.1);
        let mut x = [0.0f32; 2];
        adam.step(&mut x, &[1.0]);
    }
}
