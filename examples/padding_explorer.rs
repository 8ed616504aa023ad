//! Explore the paper's §4 padding strategies interactively-ish: pad the
//! worked example `d1 = [0,0,0,1]` (Figure 5) with every type × location
//! combination and show the resulting model inputs, then measure which
//! strategy places variable-size values best on a trained engine.
//!
//! ```text
//! cargo run --release --example padding_explorer
//! ```

use e2nvm::core::{E2Config, E2Engine, Padder, PaddingLocation, PaddingType};
use e2nvm::sim::{DeviceConfig, LogicalSegment, MemoryController, NvmDevice};
use e2nvm::workloads::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits_to_string(packed: &[u8]) -> String {
    packed.iter().map(|b| format!("{b:08b}")).collect()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(5);

    // --- Part 1: the paper's Figure 5 worked example -----------------
    // d1 = [0,0,0,1], padded from 4 to 8 bits.
    let d1 = [0b0001_0000u8]; // the 4 data bits live in the top nibble
    println!("padding d1 = [0,0,0,1] from 4 to 8 bits (paper Figure 5):\n");
    println!("{:>10} {:>10} {:>10}", "type", "location", "model input");
    for ptype in PaddingType::ALL {
        for loc in PaddingLocation::ALL {
            let mut padder = Padder::new(loc, ptype);
            padder.observe(&[0b1010_1100]); // some dataset history for DB
            padder.set_memory_ratio(0.6);
            // Only the top 4 bits of d1 are data; emulate by padding the
            // 4-bit value. (Bytes are the API granularity; we show the
            // 8->16 bit equivalent of the paper's 4->8 example.)
            let mut padded = [0u8; 2];
            padder.pad(&d1, &mut padded, &mut rng);
            println!(
                "{:>10} {:>10} {:>16}",
                ptype.name(),
                loc.name(),
                bits_to_string(&padded)
            );
        }
    }

    // --- Part 2: which strategy places sub-segment values best? ------
    const SEGMENT: usize = 64;
    const SEGMENTS: usize = 160;
    let old = DatasetKind::MnistLike.generate_sized(SEGMENTS, SEGMENT, &mut rng);
    let values: Vec<Vec<u8>> = DatasetKind::MnistLike
        .generate_sized(96, SEGMENT, &mut rng)
        .into_iter()
        .map(|v| v[..SEGMENT * 2 / 3].to_vec()) // crop one third off
        .collect();

    let device = NvmDevice::new(
        DeviceConfig::builder()
            .segment_bytes(SEGMENT)
            .num_segments(SEGMENTS)
            .build()
            .expect("device config"),
    );
    let mut controller = MemoryController::without_wear_leveling(device);
    for (i, content) in old.iter().enumerate() {
        controller.seed(LogicalSegment(i), content).expect("seed");
    }
    let mut engine = E2Engine::new(
        controller,
        E2Config::builder()
            .fast(SEGMENT, 8)
            .pretrain_epochs(12)
            .joint_epochs(3)
            .build()
            .expect("config"),
    )
    .expect("engine");
    println!("\ntraining placement model on {SEGMENTS} resident segments...");
    engine.train().expect("train");

    println!("\nflips per word when placing 2/3-size values (end padding):");
    for ptype in PaddingType::ALL {
        engine.set_padding(PaddingLocation::End, ptype);
        engine.reset_device_stats();
        let mut placed = Vec::new();
        for v in &values {
            if let Ok((seg, _)) = engine.place_value(v) {
                placed.push(seg);
            }
        }
        for seg in placed {
            engine.recycle_segment(seg).expect("recycle");
        }
        let stats = engine.device_stats();
        let words = (stats.bits_requested / 32).max(1);
        println!(
            "  {:>6}: {:.2}",
            ptype.name(),
            stats.bits_flipped as f64 / words as f64
        );
    }
    println!("\nlower is better — learned (LB) padding should be near the top of the ranking");
}
