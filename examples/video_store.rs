//! Store two CCTV camera feeds on one simulated NVM pool, comparing
//! E2-NVM's content-aware frame placement against arbitrary placement.
//! This mirrors the paper's video evaluation (§5.2.1: two camera
//! sequences, CCTV1 and CCTV2; older footage is overwritten by newer
//! footage): each incoming frame should overwrite a frame *from the
//! same camera*, where almost every background pixel already matches.
//!
//! ```text
//! cargo run --release --example video_store
//! ```

use e2nvm::core::{E2Config, E2Engine};
use e2nvm::sim::{DeviceConfig, LogicalSegment, MemoryController, NvmDevice};
use e2nvm::workloads::VideoDataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

const W: usize = 32;
const H: usize = 24;
const FRAME: usize = W * H;
const SEGMENTS: usize = 180;

fn main() {
    let mut rng = StdRng::seed_from_u64(4);
    // Two cameras watching different intersections: different static
    // backgrounds, different traffic.
    let cctv1 = VideoDataset::new(W, H, 4, &mut rng);
    let cctv2 = VideoDataset::new(W, H, 2, &mut rng);
    println!("two cameras, {W}x{H} grayscale, {FRAME} B/frame");

    // "Old data": 30 seconds from each camera fills the pool,
    // interleaved (as a naive recorder would have laid them out).
    let old_frames: Vec<Vec<u8>> = (0..SEGMENTS / 2)
        .flat_map(|t| [cctv1.frame(t), cctv2.frame(t)])
        .collect();
    // "New data": the rest of both clips, also interleaved.
    let new_frames: Vec<Vec<u8>> = (0..120)
        .flat_map(|t| [cctv1.frame(SEGMENTS + t), cctv2.frame(SEGMENTS + t)])
        .collect();

    let seeded_controller = || {
        let device = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(FRAME)
                .num_segments(SEGMENTS)
                .build()
                .expect("device config"),
        );
        let mut controller = MemoryController::without_wear_leveling(device);
        for (i, frame) in old_frames.iter().enumerate() {
            controller.seed(LogicalSegment(i), frame).expect("seed");
        }
        controller
    };

    // --- E2-NVM: route each frame to a same-camera segment ----------
    let cfg = E2Config::builder().fast(FRAME, 4).build().expect("config");
    let mut engine = E2Engine::new(seeded_controller(), cfg).expect("engine");
    println!("training on resident frames...");
    engine.train().expect("train");
    let mut placed = std::collections::VecDeque::new();
    for frame in &new_frames {
        if placed.len() >= SEGMENTS / 2 {
            let victim = placed.pop_front().expect("nonempty");
            engine.recycle_segment(victim).expect("recycle");
        }
        let (seg, _) = engine.place_value(frame).expect("place");
        placed.push_back(seg);
    }
    let smart = engine.device_stats().clone();

    // --- Baseline: round-robin placement (cameras get mixed up) ------
    let mut controller = seeded_controller();
    // Stride through the pool so camera-1 frames regularly land on
    // camera-2 residue, as arbitrary allocation would.
    for (i, frame) in new_frames.iter().enumerate() {
        controller
            .write_at(LogicalSegment((i * 7 + 3) % SEGMENTS), 0, frame)
            .expect("write");
    }
    let naive = controller.stats().clone();

    println!("\n              {:>12} {:>12}", "E2-NVM", "arbitrary");
    println!(
        "flips/frame   {:>12.0} {:>12.0}",
        smart.flips_per_write(),
        naive.flips_per_write()
    );
    println!(
        "energy/frame  {:>9.0} pJ {:>9.0} pJ",
        smart.energy_per_write_pj(),
        naive.energy_per_write_pj()
    );
    let saving = 1.0 - smart.flips_per_write() / naive.flips_per_write();
    println!(
        "\nbit-flip saving from camera-aware placement: {:.0}%",
        saving * 100.0
    );
}
