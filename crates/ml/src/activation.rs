//! Activation functions and their derivatives.

use crate::kernel::{Kernel, Op};
use crate::libm::{exp_lanes, expf, map_lanes};
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
    /// is a jump table inside the loop. The sigmoid's `exp` runs in
    /// `kernel`'s lanes ([`crate::libm`]), to the same bits.
    pub(crate) fn apply_biased(self, kernel: Kernel, bias: &[f32], z: &mut [f32]) {
        #[inline(always)]
        fn each(f: Activation, bias: &[f32], z: &mut [f32]) {
            for (z, b) in z.iter_mut().zip(bias) {
                *z = f.apply(*z + b);
            }
        }
        match self {
            Activation::Linear => each(Activation::Linear, bias, z),
            Activation::Relu => each(Activation::Relu, bias, z),
            Activation::Sigmoid => kernel.run(SigmoidBiased { bias, z }),
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
/// `-0.0` takes the `x ≥ 0` side. The `exp` is the crate's own, a port
/// of glibc's `expf`: the same bits on every host.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    let e = expf(-x.abs());
    let numerator = if x >= 0.0 { 1.0 } else { e };
    numerator / (1.0 + e)
}

/// [`Activation::apply_biased`]'s sigmoid: [`sigmoid`] of `z + bias`,
/// in blocks of [`SIGMOID_BLOCK`] elements, each in three loops that
/// vectorise on their own — `−|x|`, its `exp` in `LANES`-wide lanes,
/// the quotient — where one loop over all three compiles to narrower
/// vectors with scalar table loads.
struct SigmoidBiased<'a> {
    bias: &'a [f32],
    z: &'a mut [f32],
}

/// Elements per block of [`SigmoidBiased`]: a multiple of every
/// instantiation's lanes, so only a row's last block has lanes over.
const SIGMOID_BLOCK: usize = 64;

impl Op for SigmoidBiased<'_> {
    type Out = ();

    #[inline(always)]
    fn run<const BLOCK: usize, const WIDE: usize, const LANES: usize>(self) {
        let n = self.z.len().min(self.bias.len());
        let blocks = self.z[..n].chunks_mut(SIGMOID_BLOCK);
        for (z, bias) in blocks.zip(self.bias.chunks(SIGMOID_BLOCK)) {
            let mut x = [0.0f32; SIGMOID_BLOCK];
            let mut e = [0.0f32; SIGMOID_BLOCK];
            let (x, e) = (&mut x[..z.len()], &mut e[..z.len()]);
            for (((x, e), &z), &b) in x.iter_mut().zip(e.iter_mut()).zip(&*z).zip(bias) {
                *x = z + b;
                *e = -x.abs();
            }
            map_lanes(e, exp_lanes::<LANES>, expf);
            for ((z, &x), &e) in z.iter_mut().zip(&*x).zip(&*e) {
                let numerator = if x >= 0.0 { 1.0 } else { e };
                *z = numerator / (1.0 + e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

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
                1.0 / (1.0 + expf(-x))
            } else {
                let e = expf(x);
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

    /// The biased sigmoid of a row, in every instantiation's lanes, is
    /// [`sigmoid`] of each `z + b` to the bit — at widths that leave
    /// lanes over, with inputs past `exp`'s thresholds in some lanes.
    #[test]
    fn biased_sigmoid_lanes_are_the_scalar_sigmoid() {
        let mut rng = crate::rng::seeded(0x5161);
        for width in [0, 1, 3, 4, 7, 8, 9, 17, 64, 1024] {
            let bias: Vec<f32> = (0..width).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let z: Vec<f32> = (0..width)
                .map(|i| match i % 11 {
                    3 => 100.0,
                    5 => -200.0,
                    7 => f32::NAN,
                    _ => rng.gen_range(-30.0..30.0),
                })
                .collect();
            let want: Vec<u32> = z
                .iter()
                .zip(&bias)
                .map(|(z, b)| sigmoid(z + b).to_bits())
                .collect();
            for kernel in Kernel::instantiations() {
                let mut got = z.clone();
                Activation::Sigmoid.apply_biased(kernel, &bias, &mut got);
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "width {width}, {}", kernel.name());
            }
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
