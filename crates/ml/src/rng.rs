//! Random-number utilities: seeded construction and Gaussian sampling
//! (Box–Muller; the `rand` crate alone ships no normal distribution).

use crate::libm::logf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Create the workspace-standard deterministic RNG from a seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// One standard-normal sample via Box–Muller. The `ln` is the crate's
/// own (a port of glibc's `logf`, the same bits on every host); the `cos`
/// is the platform's.
pub fn normal<R: Rng>(rng: &mut R) -> f32 {
    // Avoid ln(0).
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen();
    (-2.0 * logf(u1)).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Fill a slice with N(0, std²) samples.
pub fn fill_normal<R: Rng>(rng: &mut R, out: &mut [f32], std: f32) {
    for v in out {
        *v = normal(rng) * std;
    }
}

/// Sample an index in `0..weights.len()` proportionally to `weights`.
/// Falls back to uniform if all weights are zero.
///
/// # Panics
/// Panics if `weights` is empty.
pub fn weighted_index<R: Rng>(rng: &mut R, weights: &[f32]) -> usize {
    assert!(!weights.is_empty(), "weighted_index: empty weights");
    let total: f32 = weights.iter().sum();
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut target = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_moments_roughly_standard() {
        let mut rng = seeded(1);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn fill_normal_respects_std() {
        let mut rng = seeded(2);
        let mut buf = vec![0.0f32; 10_000];
        fill_normal(&mut rng, &mut buf, 0.1);
        let var: f32 = buf.iter().map(|v| v * v).sum::<f32>() / buf.len() as f32;
        assert!((var - 0.01).abs() < 0.002, "var={var}");
    }

    #[test]
    fn weighted_index_prefers_heavy_weight() {
        let mut rng = seeded(3);
        let weights = [0.0, 0.0, 10.0, 0.1];
        let mut counts = [0usize; 4];
        for _ in 0..1000 {
            counts[weighted_index(&mut rng, &weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[1], 0);
        assert!(counts[2] > 900);
    }

    #[test]
    fn weighted_index_zero_weights_uniform() {
        let mut rng = seeded(4);
        let weights = [0.0f32; 5];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(weighted_index(&mut rng, &weights));
        }
        assert!(seen.len() > 1);
    }

    #[test]
    fn seeded_is_deterministic() {
        let a: Vec<f32> = {
            let mut r = seeded(9);
            (0..5).map(|_| normal(&mut r)).collect()
        };
        let b: Vec<f32> = {
            let mut r = seeded(9);
            (0..5).map(|_| normal(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
