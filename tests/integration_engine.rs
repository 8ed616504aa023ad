//! Cross-crate integration tests: the full E2-NVM stack (device →
//! controller → engine) against workload generators, verifying the
//! paper's core behavioural claims end to end.

use e2nvm::core::{E2Config, E2Engine, E2Error, PaddingType, PlacementModel};
use e2nvm::sim::{DeviceConfig, LogicalSegment, MemoryController, NvmDevice};
use e2nvm::workloads::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine_over(
    kind: DatasetKind,
    segment_bytes: usize,
    segments: usize,
    k: usize,
    model: PlacementModel,
) -> E2Engine {
    let mut rng = StdRng::seed_from_u64(0x1E57);
    let contents = kind.generate_sized(segments, segment_bytes, &mut rng);
    let device = NvmDevice::new(
        DeviceConfig::builder()
            .segment_bytes(segment_bytes)
            .num_segments(segments)
            .build()
            .unwrap(),
    );
    let mut controller = MemoryController::without_wear_leveling(device);
    for (i, c) in contents.iter().enumerate() {
        controller.seed(LogicalSegment(i), c).unwrap();
    }
    let cfg = E2Config::builder()
        .fast(segment_bytes, k)
        .model(model)
        .latent_dim(8)
        .hidden(vec![64])
        .pretrain_epochs(20)
        .joint_epochs(5)
        .lr(3e-3)
        .beta(0.1)
        .padding_type(PaddingType::Zero)
        .build()
        .unwrap();
    let mut engine = E2Engine::new(controller, cfg).unwrap();
    engine.train().unwrap();
    engine
}

/// The headline claim: on clusterable content, trained placement flips
/// far fewer bits than round-robin placement of the same stream.
#[test]
fn placement_beats_round_robin_on_clusterable_data() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let segment_bytes = 64;
    let segments = 128;
    let incoming = DatasetKind::MnistLike.generate_sized(192, segment_bytes, &mut rng);

    // E2 placement.
    let mut engine = engine_over(
        DatasetKind::MnistLike,
        segment_bytes,
        segments,
        8,
        PlacementModel::Vae,
    );
    engine.reset_device_stats();
    let mut placed = std::collections::VecDeque::new();
    for v in &incoming {
        if placed.len() >= segments / 2 {
            engine.recycle_segment(placed.pop_front().unwrap()).unwrap();
        }
        let (seg, _) = engine.place_value(v).unwrap();
        placed.push_back(seg);
    }
    let smart_flips = engine.device_stats().bits_flipped;

    // Round-robin over an identically seeded device.
    let mut rng2 = StdRng::seed_from_u64(0x1E57);
    let contents = DatasetKind::MnistLike.generate_sized(segments, segment_bytes, &mut rng2);
    let device = NvmDevice::new(
        DeviceConfig::builder()
            .segment_bytes(segment_bytes)
            .num_segments(segments)
            .build()
            .unwrap(),
    );
    let mut controller = MemoryController::without_wear_leveling(device);
    for (i, c) in contents.iter().enumerate() {
        controller.seed(LogicalSegment(i), c).unwrap();
    }
    for (i, v) in incoming.iter().enumerate() {
        controller
            .write_at(LogicalSegment(i % segments), 0, v)
            .unwrap();
    }
    let naive_flips = controller.stats().bits_flipped;

    // Round-robin gets accidental matches (same-class frames recur at
    // the same pool position), so the honest bar is ~1.5-2x here.
    assert!(
        smart_flips * 3 < naive_flips * 2,
        "expected ≥1.5x reduction: e2={smart_flips} naive={naive_flips}"
    );
}

/// GET returns exactly what PUT stored, across updates and deletes,
/// while placement churns segments underneath.
#[test]
fn kv_semantics_survive_churn() {
    let mut engine = engine_over(DatasetKind::AmazonAccess, 64, 96, 4, PlacementModel::Vae);
    let mut shadow = std::collections::HashMap::new();
    let mut rng = StdRng::seed_from_u64(33);
    for round in 0u64..300 {
        let key = round % 40;
        match round % 5 {
            0..=2 => {
                let value = DatasetKind::AmazonAccess
                    .generate_sized(1, 48, &mut rng)
                    .pop()
                    .unwrap();
                engine.put(key, &value).unwrap();
                shadow.insert(key, value);
            }
            3 => {
                let deleted = engine.delete(key).unwrap();
                assert_eq!(deleted, shadow.remove(&key).is_some(), "round {round}");
            }
            _ => match shadow.get(&key) {
                Some(expect) => assert_eq!(&engine.get(key).unwrap(), expect, "round {round}"),
                None => assert_eq!(engine.get(key), Err(E2Error::KeyNotFound(key))),
            },
        }
    }
    // Scan agrees with the shadow.
    let scanned = engine.scan(..).unwrap();
    assert_eq!(scanned.len(), shadow.len());
    for (k, v) in scanned {
        assert_eq!(shadow.get(&k), Some(&v));
    }
}

/// Places `items` with at most half the segments live, recycling the
/// oldest, and returns the flips per write; every segment is free again
/// afterwards, so the next phase starts clean.
fn stream_through(engine: &mut E2Engine, items: &[Vec<u8>], segments: usize) -> f64 {
    engine.reset_device_stats();
    let mut placed = std::collections::VecDeque::new();
    for v in items {
        if placed.len() >= segments / 2 {
            engine.recycle_segment(placed.pop_front().unwrap()).unwrap();
        }
        let (seg, _) = engine.place_value(v).unwrap();
        placed.push_back(seg);
    }
    let flips = engine.device_stats().flips_per_write();
    for seg in placed {
        engine.recycle_segment(seg).unwrap();
    }
    flips
}

/// Retraining under a shifted distribution restores placement quality
/// (the paper's Figure 17 scenario V).
#[test]
fn retraining_adapts_to_new_distribution() {
    let segment_bytes = 64;
    let segments = 128;
    let mut engine = engine_over(
        DatasetKind::MnistLike,
        segment_bytes,
        segments,
        6,
        PlacementModel::Vae,
    );
    let mut rng = StdRng::seed_from_u64(0xAD);

    // Shift to an unseen family with different geometry.
    let fashion = DatasetKind::FashionLike.generate_sized(256, segment_bytes, &mut rng);
    let stale = stream_through(&mut engine, &fashion[..128], segments);
    // Retrain on current (now fashion-heavy) content and re-measure.
    engine.train().unwrap();
    let fresh = stream_through(&mut engine, &fashion[128..], segments);
    assert!(
        fresh <= stale * 1.05,
        "retraining should not hurt: stale={stale:.1} fresh={fresh:.1}"
    );
}

/// After the same shift, the same stream flips fewer bits under the
/// retrained model than under the model trained before the shift, with
/// the paper's VAE and with the served default: two identical engines
/// take the same first half, one retrains, and both take the second.
#[test]
fn retraining_beats_the_stale_model_on_the_same_stream() {
    let segment_bytes = 64;
    let segments = 128;
    for model in [PlacementModel::Vae, PlacementModel::default()] {
        let mut twins =
            [0, 1].map(|_| engine_over(DatasetKind::MnistLike, segment_bytes, segments, 6, model));
        let mut rng = StdRng::seed_from_u64(0xAD);
        let fashion = DatasetKind::FashionLike.generate_sized(256, segment_bytes, &mut rng);
        let [retrained, kept] = &mut twins;
        let first = stream_through(retrained, &fashion[..128], segments);
        assert_eq!(stream_through(kept, &fashion[..128], segments), first);
        retrained.train().unwrap();
        let fresh = stream_through(retrained, &fashion[128..], segments);
        let stale = stream_through(kept, &fashion[128..], segments);
        assert!(
            fresh < stale,
            "{model:?}: retraining should help: stale={stale:.1} fresh={fresh:.1}"
        );
    }
}

/// The background retrainer produces a model the engine can install
/// without disturbing stored data.
#[test]
fn background_retrain_roundtrip() {
    use e2nvm::core::BackgroundRetrainer;
    let mut engine = engine_over(DatasetKind::PubMed, 64, 96, 4, PlacementModel::Vae);
    engine.put(7, b"persistent value").unwrap();

    let mut bg = BackgroundRetrainer::spawn();
    let snapshot = engine.training_snapshot();
    assert!(bg.submit(engine.config(), snapshot, 99));
    let model = bg.wait().expect("trained model");
    engine.install_model_now(model).unwrap();
    assert_eq!(engine.get(7).unwrap(), b"persistent value");
    // New placements still work after the swap.
    engine.put(8, b"another").unwrap();
    assert_eq!(engine.get(8).unwrap(), b"another");
}

/// Wear leveling underneath the engine does not break KV semantics.
#[test]
fn engine_over_wear_leveled_controller() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let segment_bytes = 64;
    let segments = 64;
    let contents = DatasetKind::RoadNetwork.generate_sized(segments, segment_bytes, &mut rng);
    let device = NvmDevice::new(
        DeviceConfig::builder()
            .segment_bytes(segment_bytes)
            .num_segments(segments)
            .build()
            .unwrap(),
    );
    let mut controller = MemoryController::with_random_swap(device, 7, 0xE2);
    for (i, c) in contents.iter().enumerate() {
        controller.seed(LogicalSegment(i), c).unwrap();
    }
    let cfg = E2Config::builder()
        .fast(segment_bytes, 3)
        .pretrain_epochs(6)
        .joint_epochs(1)
        .padding_type(PaddingType::Zero)
        .build()
        .unwrap();
    let mut engine = E2Engine::new(controller, cfg).unwrap();
    engine.train().unwrap();
    for key in 0..32u64 {
        engine.put(key, &key.to_le_bytes()).unwrap();
    }
    for key in 0..32u64 {
        assert_eq!(engine.get(key).unwrap(), key.to_le_bytes().to_vec());
    }
    assert!(engine.device_stats().swaps > 0, "wear leveling never fired");
}
