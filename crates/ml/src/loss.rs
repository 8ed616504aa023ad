//! Loss functions used by the VAE and LSTM trainers.

use crate::bits::{BitBatch, BYTE_FEATURES};
use crate::kernel::{Kernel, Op};
use crate::libm::{exp_in_place, ln_lanes, logf, map_lanes};
use crate::matrix::Matrix;

/// How far [`bce`] keeps a prediction from 0 and 1.
const EPS: f32 = 1e-7;

/// Binary cross-entropy, summed over features and averaged over the
/// batch — the per-sample reconstruction term of the VAE's ELBO.
/// `pred` must already be in (0, 1) (sigmoid output); values are clamped
/// away from {0,1} for stability.
pub fn bce(pred: &Matrix, target: &Matrix) -> f32 {
    assert_eq!((pred.rows(), pred.cols()), (target.rows(), target.cols()));
    let total: f32 = pred
        .as_slice()
        .iter()
        .zip(target.as_slice())
        .map(|(&p, &t)| bce_term(p, t))
        .sum();
    total / pred.rows().max(1) as f32
}

/// `-(t·ln p + (1−t)·ln(1−p))` with `p` clamped to `[ε, 1−ε]`, one `ln`
/// for a 0/1 target: both logs are then finite and negative, so the
/// dropped term is `0 × finite = −0.0`, which leaves the other as it was.
fn bce_term(p: f32, t: f32) -> f32 {
    let p = p.clamp(EPS, 1.0 - EPS);
    if t == 1.0 {
        -logf(p)
    } else if t == 0.0 {
        -logf(1.0 - p)
    } else {
        -(t * logf(p) + (1.0 - t) * logf(1.0 - p))
    }
}

/// [`bce`] against rows of packed bits, to the bit: the clamped `p`
/// (target 1) or `1 − p` (target 0) of a block of a row are gathered,
/// their `ln`s taken in the kernel's lanes, and their negations added
/// in [`bce`]'s order — one left-to-right sum over every row. (Every
/// term is positive, `1 − ε < 1`, so the sum's start changes none of
/// them.) The sum is a chain of dependent additions; a block of
/// [`BCE_BLOCK`] terms at a time lets the CPU take the next block's
/// `ln`s while the chain waits.
pub(crate) fn bce_bits(pred: &Matrix, target: BitBatch<'_>) -> f32 {
    assert_eq!((pred.rows(), pred.cols()), (target.len(), target.cols()));
    let kernel = Kernel::detect();
    let total = (0..pred.rows()).fold(0.0, |total, r| {
        kernel.run(BceRow {
            p: pred.row(r),
            target: target.row(r),
            total,
        })
    });
    total / pred.rows().max(1) as f32
}

/// Terms per block of [`bce_bits`]: eight bytes of targets.
const BCE_BLOCK: usize = 64;

/// One row of [`bce_bits`]: `total` plus its terms.
struct BceRow<'a> {
    p: &'a [f32],
    target: &'a [u8],
    total: f32,
}

impl Op for BceRow<'_> {
    type Out = f32;

    #[inline(always)]
    fn run<const BLOCK: usize, const WIDE: usize, const LANES: usize>(self) -> f32 {
        let mut total = self.total;
        let blocks = self
            .p
            .chunks(BCE_BLOCK)
            .zip(self.target.chunks(BCE_BLOCK / 8));
        for (p, target) in blocks {
            let mut q = [0.0f32; BCE_BLOCK];
            let q = &mut q[..p.len()];
            for ((q, p), &byte) in q.chunks_exact_mut(8).zip(p.chunks_exact(8)).zip(target) {
                let t = &BYTE_FEATURES[usize::from(byte)];
                for ((q, &p), &t) in q.iter_mut().zip(p).zip(t) {
                    let p = p.clamp(EPS, 1.0 - EPS);
                    *q = if t == 1.0 { p } else { 1.0 - p };
                }
            }
            map_lanes(q, ln_lanes::<LANES>, logf);
            for &ln in &*q {
                total += -ln;
            }
        }
        total
    }
}

/// KL(q(z|x) ‖ N(0, I)) summed over latent dims, averaged over the
/// batch: `-½ Σ (1 + logσ² − μ² − σ²)`.
pub fn kl_gaussian(mu: &Matrix, logvar: &Matrix) -> f32 {
    let mut var = logvar.clone();
    exp_in_place(Kernel::detect(), var.as_mut_slice());
    kl_with_variance(mu, logvar, &var)
}

/// [`kl_gaussian`] given `σ² = exp(logσ²)` as well.
pub(crate) fn kl_with_variance(mu: &Matrix, logvar: &Matrix, var: &Matrix) -> f32 {
    assert_eq!((mu.rows(), mu.cols()), (logvar.rows(), logvar.cols()));
    assert_eq!((var.rows(), var.cols()), (logvar.rows(), logvar.cols()));
    let total: f32 = mu
        .as_slice()
        .iter()
        .zip(logvar.as_slice())
        .zip(var.as_slice())
        .map(|((&m, &lv), &v)| -0.5 * (1.0 + lv - m * m - v))
        .sum();
    total / mu.rows().max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bce_minimized_at_target() {
        let t = Matrix::from_vec(1, 2, vec![1., 0.]);
        let good = Matrix::from_vec(1, 2, vec![0.99, 0.01]);
        let bad = Matrix::from_vec(1, 2, vec![0.5, 0.5]);
        assert!(bce(&good, &t) < bce(&bad, &t));
        // Extreme predictions stay finite thanks to clamping.
        let extreme = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        assert!(bce(&extreme, &t).is_finite());
    }

    /// The one-`ln` form of a 0/1 target is the two-log form to the bit,
    /// clamp bounds and out-of-range predictions included.
    #[test]
    fn bce_term_equals_the_two_log_form_exactly() {
        let eps = 1e-7f32;
        let two_log = |p: f32, t: f32| {
            let p = p.clamp(eps, 1.0 - eps);
            -(t * logf(p) + (1.0 - t) * logf(1.0 - p))
        };
        let edges = [
            -1.0,
            eps / 2.0,
            eps,
            2.0 * eps,
            1.0 - eps,
            1.0 - eps / 2.0,
            2.0,
        ];
        for p in (0..=256).map(|i| i as f32 / 256.0).chain(edges) {
            for t in [0.0, 1.0, 0.3] {
                assert_eq!(
                    bce_term(p, t).to_bits(),
                    two_log(p, t).to_bits(),
                    "p {p}, target {t}"
                );
            }
        }
    }

    /// Against packed bits, the loss is [`bce`]'s against the same bits
    /// as floats, to the bit: predictions in and out of the clamp, at
    /// widths that leave lanes over, over several rows.
    #[test]
    fn bce_of_bits_is_bce_of_their_floats() {
        let mut rng = crate::rng::seeded(0xBCE);
        for (rows, bytes) in [(1, 1), (3, 2), (5, 9), (64, 128)] {
            let segments: Vec<Vec<u8>> = (0..rows)
                .map(|_| (0..bytes).map(|_| rand::Rng::gen(&mut rng)).collect())
                .collect();
            let bits = crate::bits::BitMatrix::from_segments(&segments);
            let pred = Matrix::from_fn(rows, 8 * bytes, |r, c| match (r + c) % 13 {
                0 => 0.0,
                1 => 1.0,
                2 => 1e-9,
                3 => 1.0 - 1e-8,
                _ => rand::Rng::gen_range(&mut rng, 0.0..1.0),
            });
            assert_eq!(
                bce_bits(&pred, bits.all()).to_bits(),
                bce(&pred, &bits.to_features()).to_bits(),
                "{rows} rows of {bytes} bytes"
            );
        }
    }

    #[test]
    fn kl_zero_for_standard_normal() {
        let mu = Matrix::zeros(3, 4);
        let logvar = Matrix::zeros(3, 4);
        assert!(kl_gaussian(&mu, &logvar).abs() < 1e-6);
    }

    #[test]
    fn kl_positive_otherwise() {
        let mu = Matrix::from_vec(1, 2, vec![1.0, -2.0]);
        let logvar = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        assert!(kl_gaussian(&mu, &logvar) > 0.0);
    }
}
