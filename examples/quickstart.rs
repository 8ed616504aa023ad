//! Quickstart: build a simulated NVM device, train E2-NVM on its
//! contents, and watch content-aware placement cut bit flips.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use e2nvm::core::{E2Config, E2Engine};
use e2nvm::sim::{DeviceConfig, LogicalSegment, MemoryController, NvmDevice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // 1. A 64 KiB simulated Optane-like pool: 256 segments of 256 B.
    let device = NvmDevice::new(
        DeviceConfig::builder()
            .segment_bytes(256)
            .num_segments(256)
            .build()
            .expect("valid device config"),
    );
    let mut controller = MemoryController::without_wear_leveling(device);

    // 2. Pretend the pool has lived a life: seed it with two content
    //    families (think "mostly-dark images" vs "mostly-bright ones").
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..controller.num_segments() {
        let base: u8 = if i % 2 == 0 { 0x11 } else { 0xEE };
        let content: Vec<u8> = (0..256)
            .map(|_| if rng.gen::<f32>() < 0.06 { !base } else { base })
            .collect();
        controller.seed(LogicalSegment(i), &content).expect("seed");
    }

    // 3. Train the placement model on the free-segment contents: PCA +
    //    K-means by default (`.model(PlacementModel::Vae)` trains the
    //    paper's VAE encoder + K-means on its latent space instead).
    let cfg = E2Config::builder().fast(256, 4).build().expect("config");
    let mut engine = E2Engine::new(controller, cfg).expect("engine");
    println!("training the placement model...");
    engine.train().expect("train");
    println!(
        "trained: k = {}, ~{} MACs per prediction\n",
        engine.model().expect("trained").k(),
        engine.predict_macs()
    );

    // 4. Use it as a key-value store. Values similar to the "dark"
    //    family land on dark segments, flipping few bits.
    let dark_value: Vec<u8> = (0..200).map(|_| 0x11u8).collect();
    let bright_value: Vec<u8> = (0..200).map(|_| 0xEEu8).collect();

    engine.reset_device_stats();
    engine.put(1, &dark_value).expect("put");
    engine.put(2, &bright_value).expect("put");
    let smart = engine.device_stats().bits_flipped;
    println!("E2-NVM placement: {smart} bits flipped for two 200 B writes");

    // Compare with what an arbitrary (worst-case: cross-family)
    // placement would have cost.
    let naive = (dark_value.len() * 8) as u64; // ~every bit differs
    println!("arbitrary placement would flip ≈{naive} bits per write\n");

    // 5. Reads and deletes work as usual; deletes recycle the address
    //    back into the model's cluster pools.
    assert_eq!(engine.get(1).expect("get"), dark_value);
    engine.delete(1).expect("delete");
    println!(
        "store: {} keys, {} free segments, {:.0} pJ total write energy",
        engine.len(),
        engine.free_count(),
        engine.device_stats().energy_pj
    );
}
