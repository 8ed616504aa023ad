//! Figures 4, 8, 9 and 18: model-level behaviour (clustering
//! scalability, K selection, learning curves, training cost).

use crate::table::{fmt, Table};
use crate::Scale;
use e2nvm_core::{kselect, E2Config, PaddingLocation, PaddingType, PlacementModel};
use e2nvm_ml::data::segments_to_matrix;
use e2nvm_ml::rng::seeded;
use e2nvm_ml::{BitMatrix, ClusterModel, DecConfig, KMeans, Pca, PredictScratch, VaeConfig};
use e2nvm_sim::bitops::hamming;
use e2nvm_sim::EnergyParams;
use e2nvm_workloads::DatasetKind;
use std::time::Instant;

/// Expected flips when an incoming item overwrites a same-cluster
/// resident: the mean hamming distance between each test item and a
/// rotating member of its predicted cluster, one of `k`. An item whose
/// cluster holds no member is skipped.
pub(crate) fn expected_flips(
    items: &[Vec<u8>],
    assignments: &[usize],
    test: &[Vec<u8>],
    k: usize,
    mut predict: impl FnMut(&[u8]) -> usize,
) -> f64 {
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &c) in assignments.iter().enumerate() {
        groups[c].push(i);
    }
    let mut total = 0.0;
    let mut count = 0u64;
    for (t_idx, item) in test.iter().enumerate() {
        let group = &groups[predict(item)];
        if group.is_empty() {
            continue;
        }
        // "We just take the first available address in the cluster":
        // rotate through the group to model FIFO pops.
        let target = group[t_idx % group.len()];
        total += hamming(item, &items[target]) as f64;
        count += 1;
    }
    if count == 0 {
        f64::NAN
    } else {
        total / count as f64
    }
}

/// Figure 4: preprocessing/training latency and achieved bit flips vs
/// feature count, for K-means alone, PCA+K-means (the two PNW modes),
/// and the VAE-based model (E2-NVM), on MNIST-like data.
pub fn fig04(scale: Scale) -> Table {
    let k = 10;
    let n_train = scale.pick(192, 512);
    let n_test = scale.pick(64, 128);
    let feature_counts: Vec<usize> = scale.pick(
        vec![32, 128, 512, 2048],
        vec![32, 128, 512, 2048, 8192, 16384],
    );
    let mut table = Table::new(
        "fig04",
        "clustering latency + bit flips vs feature count (MNIST-like, k=10)",
        &[
            "features",
            "kmeans_ms",
            "kmeans_flips",
            "pca_kmeans_ms",
            "pca_kmeans_flips",
            "vae_ms",
            "vae_flips",
        ],
    );
    for &m in &feature_counts {
        let bytes = m / 8;
        let mut rng = seeded(0x000F_1604 ^ m as u64);
        let items = DatasetKind::MnistLike.generate_sized(n_train, bytes, &mut rng);
        let test = DatasetKind::MnistLike.generate_sized(n_test, bytes, &mut rng);
        let features = segments_to_matrix(&items);
        let bits = BitMatrix::from_segments(&items);

        // --- K-means on raw bits (PNW mode 1) ---
        let t0 = Instant::now();
        let raw_fit = KMeans::fit(&features, k, 25, &mut rng);
        let kmeans_ms = t0.elapsed().as_secs_f64() * 1e3;
        let kmeans_flips = expected_flips(&items, &raw_fit.assignments, &test, k, |item| {
            raw_fit
                .model
                .predict(&e2nvm_ml::data::bytes_to_features(item))
        });

        // --- PCA + K-means (PNW mode 2) ---
        let t0 = Instant::now();
        let pca = Pca::fit(&bits, 16, 8, &mut rng);
        let reduced = pca.transform(&bits);
        let pca_fit = KMeans::fit(&reduced, k, 25, &mut rng);
        let pca_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (placer, mut scratch) = (pca.placer(pca_fit.model), PredictScratch::default());
        let pca_flips = expected_flips(&items, &pca_fit.assignments, &test, k, |item| {
            placer.predict_packed(item, &mut scratch)
        });

        // --- VAE + K-means (E2-NVM) ---
        let dec_cfg = DecConfig {
            vae: VaeConfig {
                input_dim: m,
                hidden: vec![64.min(m).max(16)],
                latent_dim: 10,
                lr: 3e-3,
                beta: 0.1,
            },
            k,
            pretrain_epochs: scale.pick(10, 20),
            joint_epochs: 3,
            gamma: 0.2,
            batch: 64,
            kmeans_iters: 25,
        };
        let t0 = Instant::now();
        let (model, _) = ClusterModel::train(&dec_cfg, &bits, None, &mut rng);
        let vae_ms = t0.elapsed().as_secs_f64() * 1e3;
        let assignments = model.predict_batch(&features);
        let (placer, mut scratch) = (model.placer(), PredictScratch::default());
        let vae_flips = expected_flips(&items, &assignments, &test, k, |item| {
            placer.predict_packed(item, &mut scratch)
        });

        table.row(vec![
            m.to_string(),
            fmt(kmeans_ms),
            fmt(kmeans_flips),
            fmt(pca_ms),
            fmt(pca_flips),
            fmt(vae_ms),
            fmt(vae_flips),
        ]);
    }
    table.note("paper Fig 4: raw K-means latency explodes with features; PCA+K-means trades flips for speed; VAE keeps both low");
    table
}

/// Figure 8: SSE elbow and the energy valley vs K (CIFAR-like data).
pub fn fig08(scale: Scale) -> Table {
    let segment_bytes = 64;
    let n = scale.pick(192, 512);
    let mut rng = seeded(0x000F_1608);
    let contents = DatasetKind::CifarLike.generate_sized(n, segment_bytes, &mut rng);
    let ks: Vec<usize> = scale.pick(
        vec![1, 2, 4, 6, 10, 16],
        vec![1, 2, 4, 6, 8, 12, 16, 24, 30],
    );
    let base = E2Config::builder()
        .fast(segment_bytes, 1)
        .model(PlacementModel::Vae)
        .pretrain_epochs(scale.pick(8, 15))
        .joint_epochs(2)
        .latent_dim(8)
        .hidden(vec![48])
        .padding_type(PaddingType::Zero)
        .padding_location(PaddingLocation::End)
        .build()
        .unwrap();
    // Assume a write volume that makes both energy terms visible.
    let est_writes = scale.pick(20_000u64, 200_000);
    let sel = kselect::sweep_k(
        &base,
        &contents,
        &ks,
        &EnergyParams::default(),
        est_writes,
        &mut rng,
    );
    let mut table = Table::new(
        "fig08",
        "SSE elbow + energy valley vs K (CIFAR-like)",
        &[
            "k",
            "sse",
            "expected_flips",
            "train_energy_uj",
            "write_energy_uj",
            "total_uj",
        ],
    );
    for p in &sel.points {
        table.row(vec![
            p.k.to_string(),
            fmt(p.sse as f64),
            fmt(p.expected_flips),
            fmt(p.train_energy_pj / 1e6),
            fmt(p.write_energy_pj / 1e6),
            fmt(p.total_energy_pj() / 1e6),
        ]);
    }
    table.note(format!(
        "elbow K = {}, energy-valley K = {} (paper Fig 8: elbow at K=6 on CIFAR-10)",
        sel.elbow_k, sel.energy_k
    ));
    table
}

/// Figure 9: VAE training and validation loss curves per dataset.
pub fn fig09(scale: Scale) -> Table {
    let segment_bytes = 64;
    let n = scale.pick(256, 640);
    let epochs = scale.pick(12, 25);
    let kinds = [
        DatasetKind::MnistLike,
        DatasetKind::CifarLike,
        DatasetKind::AmazonAccess,
        DatasetKind::PubMed,
    ];
    let mut curves: Vec<(String, Vec<f32>, Vec<f32>)> = Vec::new();
    for kind in kinds {
        let mut rng = seeded(0x000F_1609 ^ kind.item_bytes() as u64);
        let items = kind.generate_sized(n, segment_bytes, &mut rng);
        let cfg = E2Config::builder()
            .fast(segment_bytes, 4)
            .model(PlacementModel::Vae)
            .pretrain_epochs(epochs)
            .joint_epochs(0)
            .latent_dim(8)
            .hidden(vec![64])
            .padding_type(PaddingType::Zero)
            .build()
            .unwrap();
        let model = e2nvm_core::E2Model::train(&cfg, &items, &mut rng);
        let h = model.history();
        curves.push((
            kind.name().to_string(),
            h.train.iter().map(|l| l.total()).collect(),
            h.validation.iter().map(|l| l.total()).collect(),
        ));
    }
    let mut headers: Vec<String> = vec!["epoch".into()];
    for (name, _, _) in &curves {
        headers.push(format!("{name}_train"));
        headers.push(format!("{name}_val"));
    }
    let mut table = Table::new(
        "fig09",
        "VAE training/validation loss per epoch per dataset",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for e in 0..epochs {
        let mut row = vec![e.to_string()];
        for (_, train, val) in &curves {
            row.push(fmt(train.get(e).copied().unwrap_or(f32::NAN) as f64));
            row.push(fmt(val.get(e).copied().unwrap_or(f32::NAN) as f64));
        }
        table.row(row);
    }
    table.note("paper Fig 9: losses converge within a few epochs on every dataset");
    table
}

/// Figure 18: training latency and energy per epoch vs the number of
/// indexed memory segments (ImageNet-like).
pub fn fig18(scale: Scale) -> Table {
    let segment_bytes = 64;
    let counts: Vec<usize> = scale.pick(vec![256, 1024, 4096], vec![512, 2048, 8192, 32768]);
    let energy = EnergyParams::default();
    let mut table = Table::new(
        "fig18",
        "training latency + energy per epoch vs #segments (ImageNet-like)",
        &["segments", "epoch_ms", "epoch_energy_uj"],
    );
    for &n in &counts {
        let mut rng = seeded(0x000F_1618 ^ n as u64);
        let items = DatasetKind::ImagenetLike.generate_sized(n, segment_bytes, &mut rng);
        let features = BitMatrix::from_segments(&items);
        let mut vae = e2nvm_ml::Vae::new(
            VaeConfig {
                input_dim: segment_bytes * 8,
                hidden: vec![64],
                latent_dim: 8,
                lr: 3e-3,
                beta: 0.1,
            },
            &mut rng,
        );
        // Warm one epoch (allocator effects), then time one epoch.
        vae.train_epoch(&features, 64, &mut rng);
        let t0 = Instant::now();
        vae.train_epoch(&features, 64, &mut rng);
        let epoch_ms = t0.elapsed().as_secs_f64() * 1e3;
        let epoch_energy = energy.cpu_energy_pj(vae.train_macs_per_epoch(n)) / 1e6;
        table.row(vec![n.to_string(), fmt(epoch_ms), fmt(epoch_energy)]);
    }
    table.note("paper Fig 18: both latency and energy per epoch grow with segment count");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Scale {
        Scale { quick: true }
    }

    #[test]
    fn fig04_kmeans_latency_grows_and_vae_flips_low() {
        let t = fig04(quick());
        let first = &t.rows[0];
        let last = t.rows.last().unwrap();
        let kmeans_first: f64 = first[1].parse().unwrap();
        let kmeans_last: f64 = last[1].parse().unwrap();
        assert!(
            kmeans_last > kmeans_first * 4.0,
            "raw kmeans latency should blow up: {kmeans_first} -> {kmeans_last}"
        );
        // At the largest size, VAE flips should not be worse than
        // PCA+K-means by much (paper: VAE strictly better).
        let pca_flips: f64 = last[4].parse().unwrap();
        let vae_flips: f64 = last[6].parse().unwrap();
        assert!(
            vae_flips < pca_flips * 1.3,
            "vae={vae_flips} pca={pca_flips}"
        );
    }

    #[test]
    fn fig08_valley_exists() {
        let t = fig08(quick());
        // SSE decreases with K.
        let sses: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(sses.first().unwrap() > sses.last().unwrap());
        // Training energy increases with K.
        let te: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(te.first().unwrap() < te.last().unwrap());
    }

    #[test]
    fn fig09_losses_decrease() {
        let t = fig09(quick());
        for col in 1..t.headers.len() {
            let first: f64 = t.rows[0][col].parse().unwrap();
            let last: f64 = t.rows.last().unwrap()[col].parse().unwrap();
            assert!(
                last < first,
                "{}: loss did not decrease ({first} -> {last})",
                t.headers[col]
            );
        }
    }

    #[test]
    fn fig18_cost_grows_with_segments() {
        let t = fig18(quick());
        let ms: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        let uj: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(ms.last().unwrap() > ms.first().unwrap());
        assert!(uj.windows(2).all(|w| w[0] < w[1]), "{uj:?}");
    }
}
