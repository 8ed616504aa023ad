//! A service lifecycle: train once, serve concurrently from multiple
//! threads with lazy background retraining, then "restart" — persisting
//! the trained model and the device image and resuming without
//! retraining.
//!
//! ```text
//! cargo run --release --example persistent_service
//! ```

use e2nvm::core::{E2Config, E2Engine, ShardedEngine};
use e2nvm::sim::{DeviceConfig, LogicalSegment, MemoryController, NvmDevice};
use e2nvm::workloads::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEGMENT: usize = 64;
const SEGMENTS: usize = 192;

fn main() {
    let tmp = std::env::temp_dir();
    let model_path = tmp.join("e2nvm_service_model.bin");
    let image_path = tmp.join("e2nvm_service_device.bin");

    // ---------- first boot: train and serve ----------
    let mut rng = StdRng::seed_from_u64(2026);
    let residents = DatasetKind::AmazonAccess.generate_sized(SEGMENTS, SEGMENT, &mut rng);
    let device = NvmDevice::new(
        DeviceConfig::builder()
            .segment_bytes(SEGMENT)
            .num_segments(SEGMENTS)
            .build()
            .expect("device config"),
    );
    let mut controller = MemoryController::without_wear_leveling(device);
    for (i, r) in residents.iter().enumerate() {
        controller.seed(LogicalSegment(i), r).expect("seed");
    }
    let cfg = E2Config::builder()
        .fast(SEGMENT, 6)
        .pretrain_epochs(12)
        .joint_epochs(3)
        .retrain_min_free(2)
        .build()
        .expect("config");
    let mut engine = E2Engine::new(controller, cfg.clone()).expect("engine");
    println!("boot #1: training the placement model...");
    engine.train().expect("train");

    let shared = ShardedEngine::new(vec![engine]);
    println!("serving from 4 threads...");
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let s = shared.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                let values = DatasetKind::AmazonAccess.generate_sized(20, 48, &mut rng);
                for (i, v) in values.iter().enumerate() {
                    let key = t * 1000 + i as u64;
                    s.put(key, v).expect("put");
                    assert_eq!(&s.get(key).expect("get"), v);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("thread");
    }
    shared.finish_retraining();
    let stats = shared.device_stats();
    println!(
        "  {} keys stored, {:.1} flips/write, {} background model swaps",
        shared.len(),
        stats.flips_per_write(),
        shared.model_swaps()
    );

    // ---------- shutdown: persist model + device image ----------
    shared.with_shard_engine(0, |engine| {
        e2nvm::persist::save_model(engine.model().expect("trained"), &model_path)
            .expect("save model");
        e2nvm::persist::save_device(engine.controller().device(), &image_path).expect("save image");
    });
    let model_bytes = std::fs::metadata(&model_path).expect("meta").len();
    let image_bytes = std::fs::metadata(&image_path).expect("meta").len();
    println!("\npersisted: model {model_bytes} B, device image {image_bytes} B");
    drop(shared);

    // ---------- second boot: resume without retraining ----------
    println!("\nboot #2: loading device image + model (no retraining)...");
    let device = e2nvm::persist::load_device(&image_path).expect("load image");
    let controller = MemoryController::without_wear_leveling(device);
    let mut engine = E2Engine::new(controller, cfg).expect("engine");
    let model = e2nvm::persist::load_model(&model_path).expect("load model");
    engine
        .install_model_now(model)
        .expect("a model of this engine's segment width");
    println!(
        "  resumed: k = {}, {} free segments classified",
        engine.model().expect("installed").k(),
        engine.free_count()
    );
    // The resumed engine places content-aware immediately.
    let mut rng = StdRng::seed_from_u64(77);
    let probe = DatasetKind::AmazonAccess
        .generate_sized(1, 48, &mut rng)
        .remove(0);
    let (seg, report) = engine.place_value(&probe).expect("place");
    println!(
        "  first write after resume: {} -> {} bit flips (no training paid)",
        seg, report.bits_flipped
    );

    std::fs::remove_file(&model_path).ok();
    std::fs::remove_file(&image_path).ok();
}
