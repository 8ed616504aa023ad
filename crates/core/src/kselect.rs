//! Choosing the number of clusters K (paper §4.1.4, Figure 8): the SSE
//! elbow plus the *energy valley* — training energy grows with K while
//! NVM write energy shrinks, so the total has a minimum at a moderate K.

use crate::config::{E2Config, PlacementModel};
use crate::model::{E2Model, PCA_COMPONENTS, PCA_KMEANS_ITERS, PCA_KMEANS_STARTS, PCA_SWEEPS};
use e2nvm_sim::bitops::hamming;
use e2nvm_sim::EnergyParams;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One point of a K sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KSweepPoint {
    /// The candidate K.
    pub k: usize,
    /// Final latent-space SSE (Eq. 1).
    pub sse: f32,
    /// Mean intra-cluster hamming distance of the training contents —
    /// the expected flips of one same-cluster overwrite.
    pub expected_flips: f64,
    /// Modeled training energy, pJ.
    pub train_energy_pj: f64,
    /// Modeled NVM write energy for the assumed write volume, pJ.
    pub write_energy_pj: f64,
}

impl KSweepPoint {
    /// Total modeled energy (the "valley" quantity).
    pub fn total_energy_pj(&self) -> f64 {
        self.train_energy_pj + self.write_energy_pj
    }
}

/// Result of [`sweep_k`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KSelection {
    /// The sweep points in K order.
    pub points: Vec<KSweepPoint>,
    /// K chosen by the SSE elbow.
    pub elbow_k: usize,
    /// K with minimum total modeled energy.
    pub energy_k: usize,
}

/// Sweep candidate Ks: train a model per K on `contents`, compute SSE,
/// expected same-cluster flips, and the modeled energy split assuming
/// `est_writes` future writes.
///
/// # Panics
/// Panics if `ks` or `contents` is empty.
pub fn sweep_k<R: Rng>(
    base: &E2Config,
    contents: &[Vec<u8>],
    ks: &[usize],
    energy: &EnergyParams,
    est_writes: u64,
    rng: &mut R,
) -> KSelection {
    assert!(!ks.is_empty(), "sweep_k: no candidate Ks");
    assert!(!contents.is_empty(), "sweep_k: no contents");
    let mut points = Vec::with_capacity(ks.len());
    let lines = base.segment_bytes.div_ceil(64) as u64;
    for &k in ks {
        let cfg = E2Config { k, ..base.clone() };
        let model = E2Model::train(&cfg, contents, rng);
        let assignments = model.classify_segments(contents);
        let expected_flips = mean_intra_cluster_hamming(contents, &assignments, model.k());
        // Training energy: the model's epochs (a PCA's sweeps) plus
        // the K-dependent K-means fits — for the VAE one after
        // pretraining and one per joint epoch — the reason the paper's
        // Figure 8 shows rising system energy at large K.
        let (epochs, kmeans_iters, dims) = match cfg.model {
            PlacementModel::Vae => (
                cfg.pretrain_epochs + cfg.joint_epochs,
                // Lloyd iterations over all refits.
                (cfg.joint_epochs + 1) * cfg.dec_config().kmeans_iters,
                cfg.latent_dim,
            ),
            PlacementModel::PcaKMeans => (
                PCA_SWEEPS,
                PCA_KMEANS_STARTS * PCA_KMEANS_ITERS,
                PCA_COMPONENTS,
            ),
        };
        let n = contents.len().min(cfg.train_sample_cap);
        let model_macs = model.train_macs_per_epoch(n) * epochs as u64;
        let kmeans_macs = (kmeans_iters * n * model.k() * dims) as u64;
        let train_energy_pj = energy.cpu_energy_pj(model_macs + kmeans_macs);
        // Write energy: per-write cost with the expected flips.
        let write_energy_pj =
            energy.write_energy_pj(lines, expected_flips.round() as u64) * est_writes as f64;
        let sse = model.history().sse.last().copied().unwrap_or(f32::NAN);
        points.push(KSweepPoint {
            k: model.k(),
            sse,
            expected_flips,
            train_energy_pj,
            write_energy_pj,
        });
    }
    let curve: Vec<(usize, f32)> = points.iter().map(|p| (p.k, p.sse)).collect();
    let elbow_k = e2nvm_ml::elbow_k(&curve);
    let energy_k = points
        .iter()
        .min_by(|a, b| {
            a.total_energy_pj()
                .partial_cmp(&b.total_energy_pj())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|p| p.k)
        .unwrap_or(ks[0]);
    KSelection {
        points,
        elbow_k,
        energy_k,
    }
}

/// Mean pairwise hamming distance within clusters (sampled: up to 64
/// pairs per cluster to stay cheap on large pools).
fn mean_intra_cluster_hamming(contents: &[Vec<u8>], assignments: &[usize], k: usize) -> f64 {
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &c) in assignments.iter().enumerate() {
        groups[c].push(i);
    }
    let mut total = 0.0f64;
    let mut count = 0u64;
    for group in &groups {
        if group.len() < 2 {
            continue;
        }
        // Deterministic sampling of *distant* pairs (stride of half the
        // group): consecutive indices are often generated back-to-back
        // from the same source and would bias the estimate low.
        let pairs = group.len().min(64);
        let stride = (group.len() / 2).max(1);
        for p in 0..pairs {
            let a = group[p % group.len()];
            let b = group[(p + stride) % group.len()];
            total += hamming(&contents[a], &contents[b]) as f64;
            count += 1;
        }
    }
    if count == 0 {
        // Single-member clusters everywhere: fall back to the global
        // mean pairwise distance.
        if contents.len() < 2 {
            return 0.0;
        }
        let mut t = 0.0;
        let mut c = 0u64;
        for w in contents.windows(2).take(64) {
            t += hamming(&w[0], &w[1]) as f64;
            c += 1;
        }
        return t / c as f64;
    }
    total / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2nvm_ml::rng::seeded;
    use rand::Rng;

    fn families(n_per: usize, bytes: usize, classes: usize, rng: &mut impl Rng) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for cls in 0..classes {
            let template: Vec<u8> = (0..bytes)
                .map(|b| {
                    if (b + cls) % classes < classes / 2 {
                        0xFF
                    } else {
                        0x00
                    }
                })
                .collect();
            for _ in 0..n_per {
                out.push(
                    template
                        .iter()
                        .map(|&v| if rng.gen::<f32>() < 0.05 { !v } else { v })
                        .collect(),
                );
            }
        }
        out
    }

    fn quick_cfg() -> E2Config {
        E2Config::builder()
            .fast(16, 2)
            .model(PlacementModel::Vae)
            .pretrain_epochs(5)
            .joint_epochs(1)
            .build()
            .unwrap()
    }

    #[test]
    fn sweep_produces_monotone_ish_sse() {
        let mut rng = seeded(1);
        let contents = families(20, 16, 4, &mut rng);
        let sel = sweep_k(
            &quick_cfg(),
            &contents,
            &[1, 2, 4, 8],
            &EnergyParams::default(),
            1000,
            &mut rng,
        );
        assert_eq!(sel.points.len(), 4);
        // SSE at k=8 must be well below k=1.
        assert!(sel.points[3].sse < sel.points[0].sse);
        // Expected flips shrink as clustering refines.
        assert!(sel.points[3].expected_flips <= sel.points[0].expected_flips);
        assert!(sel.points.iter().all(|p| p.train_energy_pj > 0.0));
    }

    #[test]
    fn energy_valley_prefers_small_k_when_training_dominates() {
        let mut rng = seeded(2);
        let contents = families(15, 16, 2, &mut rng);
        // No writes at all -> training energy is the only term; it
        // grows with K (K-means refits), so the smallest K wins.
        let sel_few = sweep_k(
            &quick_cfg(),
            &contents,
            &[1, 2, 6],
            &EnergyParams::default(),
            0,
            &mut rng,
        );
        assert_eq!(sel_few.energy_k, 1);
        // Training energy is monotone in K.
        let te: Vec<f64> = sel_few.points.iter().map(|p| p.train_energy_pj).collect();
        assert!(
            te[0] < te[1] && te[1] < te[2],
            "train energy not rising: {te:?}"
        );
    }

    #[test]
    fn intra_cluster_distance_zero_for_identical() {
        let contents = vec![vec![7u8; 8]; 6];
        let assignments = vec![0usize; 6];
        assert_eq!(mean_intra_cluster_hamming(&contents, &assignments, 1), 0.0);
    }

    #[test]
    fn singleton_clusters_fall_back_to_global() {
        let contents = vec![vec![0u8; 4], vec![0xFFu8; 4]];
        let assignments = vec![0usize, 1];
        let d = mean_intra_cluster_hamming(&contents, &assignments, 2);
        assert_eq!(d, 32.0);
    }
}
