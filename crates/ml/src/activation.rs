//! Activation functions and their derivatives.

use serde::{Deserialize, Serialize};

/// Supported layer activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity.
    Linear,
    /// max(0, x).
    Relu,
    /// 1 / (1 + e^-x).
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Apply the activation to a pre-activation value.
    #[inline]
    pub fn apply(&self, x: f32) -> f32 {
        match self {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => sigmoid(x),
            Activation::Tanh => x.tanh(),
        }
    }

    /// `z = f(z + bias)` element by element — [`Activation::apply`] with
    /// the variant matched once, outside the loop: each arm is
    /// straight-line code that vectorises, where matching per element
    /// is a jump table inside the loop.
    pub(crate) fn apply_biased(self, bias: &[f32], z: &mut [f32]) {
        #[inline(always)]
        fn each(f: Activation, bias: &[f32], z: &mut [f32]) {
            for (z, b) in z.iter_mut().zip(bias) {
                *z = f.apply(*z + b);
            }
        }
        match self {
            Activation::Linear => each(Activation::Linear, bias, z),
            Activation::Relu => each(Activation::Relu, bias, z),
            Activation::Sigmoid => each(Activation::Sigmoid, bias, z),
            Activation::Tanh => each(Activation::Tanh, bias, z),
        }
    }

    /// Derivative expressed in terms of the *output* `y = f(x)` (cheaper
    /// than recomputing from x for sigmoid/tanh; exact for all four).
    #[inline]
    pub fn derivative_from_output(&self, y: f32) -> f32 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
        }
    }
}

/// Numerically-stable logistic sigmoid: `1 / (1 + e^-x)` for `x ≥ 0`
/// and `e^x / (1 + e^x)` below, so `exp` never sees a positive
/// argument. Both sides share `e = exp(-|x|)` — `exp(-x)` on the first,
/// `exp(x)` on the second, the same calls the two formulas make — and
/// the numerator is picked with a select on `x ≥ 0` instead of a
/// branch, which a layer's outputs of either sign would mispredict.
/// `-0.0` takes the `x ≥ 0` side.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    let e = (-x.abs()).exp();
    let numerator = if x >= 0.0 { 1.0 } else { e };
    numerator / (1.0 + e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_basics() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        // Extreme inputs stay finite (stability).
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
    }

    /// The select is the two-branch form to the bit (a NaN matches any
    /// NaN), over a sweep and the edges of `exp`: signed zeros,
    /// subnormals, where `e` underflows and overflows, infinities.
    #[test]
    fn sigmoid_equals_the_two_branch_form_exactly() {
        let two_branch = |x: f32| {
            if x >= 0.0 {
                1.0 / (1.0 + (-x).exp())
            } else {
                let e = x.exp();
                e / (1.0 + e)
            }
        };
        let edges = [
            0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            1e-30,
            15.0,
            87.3,
            88.8,
            104.0,
            f32::INFINITY,
        ];
        let sweep = (-4096..=4096).map(|i| i as f32 / 64.0);
        let xs = sweep
            .chain(edges.iter().flat_map(|&e| [e, -e]))
            .chain([f32::NAN, -f32::NAN]);
        for x in xs {
            let (got, want) = (sigmoid(x), two_branch(x));
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "sigmoid({x:e}) is {got:e}, the two-branch form says {want:e}"
            );
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
    }

    #[test]
    fn derivatives_match_numeric() {
        let h = 1e-3f32;
        for act in [
            Activation::Linear,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            for &x in &[-1.5f32, -0.2, 0.3, 1.7] {
                if act == Activation::Relu && x.abs() < 2.0 * h {
                    continue; // kink
                }
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let analytic = act.derivative_from_output(act.apply(x));
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{act:?} at {x}: numeric={numeric} analytic={analytic}"
                );
            }
        }
    }
}
