//! Integration tests for the §4.1.4 incremental indexing.

use e2nvm_core::{E2Config, E2Engine, E2Error, PaddingType};
use e2nvm_sim::{DeviceConfig, LogicalSegment, MemoryController, NvmDevice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn engine(segments: usize, seg_bytes: usize, k: usize) -> E2Engine {
    let dev = NvmDevice::new(
        DeviceConfig::builder()
            .segment_bytes(seg_bytes)
            .num_segments(segments)
            .build()
            .unwrap(),
    );
    let mut controller = MemoryController::without_wear_leveling(dev);
    let mut rng = StdRng::seed_from_u64(11);
    for i in 0..segments {
        let base = if i % 2 == 0 { 0x0Fu8 } else { 0xF0 };
        let content: Vec<u8> = (0..seg_bytes)
            .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
            .collect();
        controller.seed(LogicalSegment(i), &content).unwrap();
    }
    let cfg = E2Config::builder()
        .fast(seg_bytes, k)
        .pretrain_epochs(6)
        .joint_epochs(1)
        .padding_type(PaddingType::Zero)
        .build()
        .unwrap();
    E2Engine::new(controller, cfg).unwrap()
}

#[test]
fn partial_training_limits_pool_then_grows() {
    let mut e = engine(64, 32, 2);
    e.train_partial(16).unwrap();
    assert_eq!(e.free_count(), 16);
    // Writes only land on mapped segments.
    for key in 0..16u64 {
        e.put(key, &[0x0Fu8; 32]).unwrap();
    }
    assert_eq!(e.put(99, &[0x0Fu8; 32]), Err(E2Error::OutOfSpace));
    // Extend coverage; capacity appears without retraining.
    assert_eq!(e.index_more(20).unwrap(), 20);
    assert_eq!(e.free_count(), 20);
    e.put(99, &[0x0Fu8; 32]).unwrap();
    // Remaining frontier: 64 - 16 - 20 = 28.
    assert_eq!(e.index_more(100).unwrap(), 28);
    assert_eq!(e.index_more(100).unwrap(), 0);
}

#[test]
fn partial_training_validates_bounds() {
    let mut e = engine(16, 32, 2);
    assert!(matches!(e.train_partial(0), Err(E2Error::Config(_))));
    assert!(matches!(e.train_partial(17), Err(E2Error::Config(_))));
}

#[test]
fn index_more_without_partial_is_noop() {
    let mut e = engine(16, 32, 2);
    e.train().unwrap();
    assert_eq!(e.index_more(8).unwrap(), 0);
    assert_eq!(e.free_count(), 16);
}

#[test]
fn incrementally_indexed_segments_are_classified() {
    let mut e = engine(64, 32, 2);
    e.train_partial(32).unwrap();
    e.index_more(32).unwrap();
    // The placement must still route by content: an 0x0F-ish value goes
    // to an even (0x0F-family) segment.
    let (seg, report) = e.place_value(&[0x0Fu8; 32]).unwrap();
    assert_eq!(seg.index() % 2, 0, "wrong family segment {seg}");
    assert!(report.bits_flipped < 40);
}

#[test]
fn partial_training_never_pools_a_live_segment() {
    let mut e = engine(32, 32, 2);
    e.train_partial(16).unwrap();
    for key in 0..8u64 {
        e.put(key, &[key as u8; 32]).unwrap();
    }
    // Every live value sits below segment 16. A second partial training
    // over them must be refused, or leave them out of the pool.
    match e.train_partial(16) {
        Ok(()) | Err(E2Error::Config(_)) => {}
        Err(other) => panic!("unexpected error {other:?}"),
    }
    for key in 100..100 + e.free_count() as u64 {
        e.put(key, &[0xA5u8; 32]).unwrap();
    }
    for key in 0..8u64 {
        assert_eq!(e.get(key).unwrap(), vec![key as u8; 32], "key {key}");
    }
}
