//! The Adam optimizer (the paper's LSTM snippet compiles with
//! `optimizer='adam'`).

use crate::kernel::{Kernel, Op};

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

    /// Apply one Adam update: `params -= lr * m̂ / (sqrt(v̂) + ε)`,
    /// in the kernel's instantiation: every operation of the update is
    /// correctly rounded, division and `sqrt` included, so the vector
    /// width changes no parameter.
    ///
    /// # Panics
    /// Panics if `params`/`grads` length differs from the state length.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len(), "Adam: param length changed");
        assert_eq!(params.len(), grads.len(), "Adam: grad length mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        Kernel::detect().run(Update {
            adam: self,
            bias_corrections: (b1t, b2t),
            params,
            grads,
        });
    }
}

/// One [`Adam::step`]'s elementwise loop.
struct Update<'a> {
    adam: &'a mut Adam,
    /// `1 − β₁ᵗ` and `1 − β₂ᵗ`.
    bias_corrections: (f32, f32),
    params: &'a mut [f32],
    grads: &'a [f32],
}

impl Op for Update<'_> {
    type Out = ();

    #[inline(always)]
    fn run<const BLOCK: usize, const WIDE: usize>(self) {
        let Adam {
            lr,
            beta1,
            beta2,
            eps,
            m,
            v,
            ..
        } = self.adam;
        let (lr, beta1, beta2, eps) = (*lr, *beta1, *beta2, *eps);
        let (b1t, b2t) = self.bias_corrections;
        let state = m.iter_mut().zip(v.iter_mut());
        for ((p, &g), (m, v)) in self.params.iter_mut().zip(self.grads).zip(state) {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / b1t;
            let v_hat = *v / b2t;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
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
