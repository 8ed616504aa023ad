//! Loss functions used by the VAE and LSTM trainers.

use crate::matrix::Matrix;

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
    const EPS: f32 = 1e-7;
    let p = p.clamp(EPS, 1.0 - EPS);
    if t == 1.0 {
        -p.ln()
    } else if t == 0.0 {
        -(1.0 - p).ln()
    } else {
        -(t * p.ln() + (1.0 - t) * (1.0 - p).ln())
    }
}

/// KL(q(z|x) ‖ N(0, I)) summed over latent dims, averaged over the
/// batch: `-½ Σ (1 + logσ² − μ² − σ²)`.
pub fn kl_gaussian(mu: &Matrix, logvar: &Matrix) -> f32 {
    assert_eq!((mu.rows(), mu.cols()), (logvar.rows(), logvar.cols()));
    let total: f32 = mu
        .as_slice()
        .iter()
        .zip(logvar.as_slice())
        .map(|(&m, &lv)| -0.5 * (1.0 + lv - m * m - lv.exp()))
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
            -(t * p.ln() + (1.0 - t) * (1.0 - p).ln())
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
