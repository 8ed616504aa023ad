//! Synthetic dataset generators with the *structure* of the paper's
//! evaluation datasets (§5.2.1).
//!
//! E2-NVM exploits exactly one property of its datasets: values form
//! hamming-distance clusters, and new writes resemble resident data.
//! Each generator here controls that property explicitly (class
//! templates + bounded noise, temporal correlation, skewed categorical
//! fields), so relative comparisons between write schemes transfer. The
//! real datasets (MNIST, CIFAR-10, ImageNet, CCTV video, UCI tables)
//! are not redistributable/downloadable in this environment; the
//! substitution is documented in DESIGN.md §2.

use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// Which dataset family to generate — mirrors the paper's list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetKind {
    /// 28×28 binary digit-like images (98 bytes), 10 classes.
    MnistLike,
    /// 28×28 binary clothing-like images (98 bytes), 10 classes with a
    /// different template family than MNIST-like.
    FashionLike,
    /// 32×32×3 color images (3072 bytes), 10 classes.
    CifarLike,
    /// Large labeled images (configurable size), 20 classes.
    ImagenetLike,
    /// Access-log records: packed categorical fields with zipf-skewed
    /// users/resources (Amazon Access Samples shape).
    AmazonAccess,
    /// Spatially correlated (lat, lon, altitude) fixed-point triples
    /// (3D Road Network shape).
    RoadNetwork,
    /// Sparse bag-of-words count rows (PubMed DocWord shape).
    PubMed,
}

impl DatasetKind {
    /// All kinds, in the paper's order of appearance.
    pub const ALL: [DatasetKind; 7] = [
        DatasetKind::MnistLike,
        DatasetKind::FashionLike,
        DatasetKind::CifarLike,
        DatasetKind::ImagenetLike,
        DatasetKind::AmazonAccess,
        DatasetKind::RoadNetwork,
        DatasetKind::PubMed,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::MnistLike => "MNIST",
            DatasetKind::FashionLike => "Fashion-MNIST",
            DatasetKind::CifarLike => "CIFAR-10",
            DatasetKind::ImagenetLike => "ImageNet",
            DatasetKind::AmazonAccess => "Amazon Access",
            DatasetKind::RoadNetwork => "3D Road Network",
            DatasetKind::PubMed => "PubMed",
        }
    }

    /// Natural item size in bytes.
    pub fn item_bytes(&self) -> usize {
        match self {
            DatasetKind::MnistLike | DatasetKind::FashionLike => 98,
            DatasetKind::CifarLike => 3072,
            DatasetKind::ImagenetLike => 4096,
            DatasetKind::AmazonAccess => 32,
            DatasetKind::RoadNetwork => 24,
            DatasetKind::PubMed => 128,
        }
    }

    /// Generate `n` items with this kind's natural size.
    pub fn generate<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<Vec<u8>> {
        match self {
            DatasetKind::MnistLike => binary_images(n, 28, 10, 0xA11CE, 0.06, rng),
            DatasetKind::FashionLike => binary_images(n, 28, 10, 0xFA5410, 0.10, rng),
            DatasetKind::CifarLike => gray_images(n, 3072, 10, 0xC1FA8, 18, rng),
            DatasetKind::ImagenetLike => gray_images(n, 4096, 20, 0x1A6E7, 22, rng),
            DatasetKind::AmazonAccess => amazon_access(n, rng),
            DatasetKind::RoadNetwork => road_network(n, rng),
            DatasetKind::PubMed => pubmed(n, 512, rng),
        }
    }

    /// Generate items resized (tiled/truncated) to exactly `bytes`.
    pub fn generate_sized<R: Rng>(&self, n: usize, bytes: usize, rng: &mut R) -> Vec<Vec<u8>> {
        self.generate(n, rng)
            .into_iter()
            .map(|item| resize_item(&item, bytes))
            .collect()
    }
}

/// Tile or truncate an item to an exact size (the paper resizes
/// ImageNet images "to fit the size of the elements in the pool").
pub fn resize_item(item: &[u8], bytes: usize) -> Vec<u8> {
    assert!(!item.is_empty(), "resize_item: empty item");
    let mut out = Vec::with_capacity(bytes);
    while out.len() < bytes {
        let take = item.len().min(bytes - out.len());
        out.extend_from_slice(&item[..take]);
    }
    out
}

/// A deterministic per-class sub-RNG so templates are stable across
/// calls regardless of how many samples are drawn.
fn class_rng(family_seed: u64, class: usize) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(
        family_seed ^ (class as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// Binary class-template images: `side × side` bits, `classes` stroke
/// templates, per-sample flip noise.
fn binary_images<R: Rng>(
    n: usize,
    side: usize,
    classes: usize,
    family_seed: u64,
    noise: f64,
    rng: &mut R,
) -> Vec<Vec<u8>> {
    let bytes = (side * side).div_ceil(8);
    // Build templates: a handful of class-specific filled rectangles
    // ("strokes") on a zero canvas.
    let templates: Vec<Vec<u8>> = (0..classes)
        .map(|cls| {
            let mut crng = class_rng(family_seed, cls);
            let mut bits = vec![0u8; side * side];
            let strokes = crng.gen_range(3..6);
            for _ in 0..strokes {
                let x0 = crng.gen_range(0..side);
                let y0 = crng.gen_range(0..side);
                let w = crng.gen_range(2..side / 2);
                let h = crng.gen_range(2..side / 2);
                for y in y0..(y0 + h).min(side) {
                    for x in x0..(x0 + w).min(side) {
                        bits[y * side + x] = 1;
                    }
                }
            }
            pack_bits(&bits, bytes)
        })
        .collect();
    let threshold = gen_bool_threshold(noise);
    (0..n)
        .map(|_| {
            let template = &templates[rng.gen_range(0..classes)];
            let mut image = vec![0u8; template.len()];
            flip_noise(template, threshold, rng, &mut image);
            image
        })
        .collect()
}

fn pack_bits(bits: &[u8], bytes: usize) -> Vec<u8> {
    let mut out = vec![0u8; bytes];
    for (i, &b) in bits.iter().enumerate() {
        if b != 0 {
            out[i / 8] |= 1 << (7 - i % 8);
        }
    }
    out
}

/// `gen_bool(p)` as an integer compare: it draws one word `x` and holds
/// when `(x >> 11) as f64 · 2⁻⁵³ < p`. That product is exact, so for an
/// integer `m < 2⁵³` the test is `m < p · 2⁵³`, which is `m < ceil(p ·
/// 2⁵³)` — the value returned here. Panics where `gen_bool` does.
fn gen_bool_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} out of [0,1]");
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// `out` = `template` with each bit flipped where a draw falls under
/// `threshold` ([`gen_bool_threshold`]): one word per bit, from each
/// byte's bit 0 up — the words and the bytes of a `gen_bool` per bit,
/// without its branch.
fn flip_noise<R: RngCore>(template: &[u8], threshold: u64, rng: &mut R, out: &mut [u8]) {
    for (o, &byte) in out.iter_mut().zip(template) {
        let mut flips = 0u8;
        for bit in 0..8 {
            flips |= u8::from(rng.next_u64() >> 11 < threshold) << bit;
        }
        *o = byte ^ flips;
    }
}

/// Grayscale/packed-color class images: smooth class template bytes
/// plus bounded additive noise.
fn gray_images<R: Rng>(
    n: usize,
    bytes: usize,
    classes: usize,
    family_seed: u64,
    noise_amp: i16,
    rng: &mut R,
) -> Vec<Vec<u8>> {
    let templates: Vec<Vec<u8>> = (0..classes)
        .map(|cls| {
            let mut crng = class_rng(family_seed, cls);
            // Low-frequency template: random walk with momentum.
            let mut value = crng.gen_range(0..256) as i16;
            let mut momentum = 0i16;
            (0..bytes)
                .map(|_| {
                    momentum = (momentum + crng.gen_range(-3..=3)).clamp(-9, 9);
                    value = (value + momentum).clamp(0, 255);
                    value as u8
                })
                .collect()
        })
        .collect();
    (0..n)
        .map(|_| {
            let cls = rng.gen_range(0..classes);
            templates[cls]
                .iter()
                .map(|&b| (b as i16 + rng.gen_range(-noise_amp..=noise_amp)).clamp(0, 255) as u8)
                .collect()
        })
        .collect()
}

/// Access-log records (Amazon Access Samples shape): `[user: 4][resource:
/// 4][group: 4][action: 1][ts: 4][flags: 1][reserved...]`, users and
/// resources drawn zipf-ish (few hot users dominate → clusterable).
fn amazon_access<R: Rng>(n: usize, rng: &mut R) -> Vec<Vec<u8>> {
    let hot_users: Vec<u32> = (0..32).map(|_| rng.gen_range(0..10_000)).collect();
    let hot_resources: Vec<u32> = (0..64).map(|_| rng.gen_range(0..50_000)).collect();
    let mut ts = 1_600_000_000u32;
    (0..n)
        .map(|_| {
            let user = if rng.gen_bool(0.8) {
                hot_users[rng.gen_range(0..hot_users.len())]
            } else {
                rng.gen_range(0..10_000)
            };
            let resource = if rng.gen_bool(0.7) {
                hot_resources[rng.gen_range(0..hot_resources.len())]
            } else {
                rng.gen_range(0..50_000)
            };
            let group = user / 100;
            let action = rng.gen_range(0..4u8);
            ts += rng.gen_range(1..30);
            let mut rec = Vec::with_capacity(32);
            rec.extend_from_slice(&user.to_le_bytes());
            rec.extend_from_slice(&resource.to_le_bytes());
            rec.extend_from_slice(&group.to_le_bytes());
            rec.push(action);
            rec.extend_from_slice(&ts.to_le_bytes());
            rec.push(u8::from(action == 0));
            rec.resize(32, 0);
            rec
        })
        .collect()
}

/// Road-network points: a spatial random walk in (lat, lon, alt),
/// quantized to i32 fixed-point — consecutive points share most of
/// their high-order bytes (3D Road Network, North Jutland shape).
fn road_network<R: Rng>(n: usize, rng: &mut R) -> Vec<Vec<u8>> {
    let mut lat = 57_000_000i64; // micro-degrees, ~North Jutland
    let mut lon = 9_900_000i64;
    let mut alt = 20_000i64; // millimeters
    (0..n)
        .map(|_| {
            lat += rng.gen_range(-500..=500);
            lon += rng.gen_range(-500..=500);
            alt = (alt + rng.gen_range(-200..=200)).max(0);
            let mut rec = Vec::with_capacity(24);
            rec.extend_from_slice(&lat.to_le_bytes());
            rec.extend_from_slice(&lon.to_le_bytes());
            rec.extend_from_slice(&alt.to_le_bytes());
            rec
        })
        .collect()
}

/// Sparse doc-word count rows (PubMed DocWord shape): `vocab` u16
/// counts per row, topic-mixture sparsity (a row touches one topic's
/// word block heavily, the rest barely).
fn pubmed<R: Rng>(n: usize, vocab: usize, rng: &mut R) -> Vec<Vec<u8>> {
    let topics = 8;
    let block = vocab / topics;
    (0..n)
        .map(|_| {
            let topic = rng.gen_range(0..topics);
            let mut counts = vec![0u16; vocab];
            let words = rng.gen_range(20..60);
            for _ in 0..words {
                let idx = if rng.gen_bool(0.85) {
                    topic * block + rng.gen_range(0..block)
                } else {
                    rng.gen_range(0..vocab)
                };
                counts[idx] = counts[idx].saturating_add(1);
            }
            // Pack the first 64 counts as the fixed-width record (the
            // DocWord rows used for placement are fixed-size slices).
            counts[..64].iter().flat_map(|c| c.to_le_bytes()).collect()
        })
        .collect()
}

/// Temporally correlated video frames: a static background with moving
/// bright rectangles (Sherbrooke / AAU CCTV shape). Consecutive frames
/// have small hamming distance; distant frames differ more.
#[derive(Debug)]
pub struct VideoDataset {
    width: usize,
    height: usize,
    background: Vec<u8>,
    objects: Vec<MovingObject>,
}

#[derive(Debug, Clone)]
struct MovingObject {
    x: f32,
    y: f32,
    dx: f32,
    dy: f32,
    w: usize,
    h: usize,
    brightness: u8,
}

impl VideoDataset {
    /// A scene of `width × height` grayscale pixels with `objects`
    /// moving rectangles.
    pub fn new<R: Rng>(width: usize, height: usize, objects: usize, rng: &mut R) -> Self {
        // Static structured background, unique per scene: a smooth
        // random walk (each camera watches a different intersection, so
        // two scenes must differ in most pixels).
        let mut level = rng.gen_range(40..200) as i16;
        let mut momentum = 0i16;
        let background: Vec<u8> = (0..width * height)
            .map(|_| {
                momentum = (momentum + rng.gen_range(-2..=2)).clamp(-6, 6);
                level = (level + momentum).clamp(0, 255);
                level as u8
            })
            .collect();
        let objects = (0..objects)
            .map(|_| MovingObject {
                x: rng.gen_range(0.0..width as f32),
                y: rng.gen_range(0.0..height as f32),
                dx: rng.gen_range(-2.0..2.0),
                dy: rng.gen_range(-1.5..1.5),
                w: rng.gen_range(2..(width / 4).max(3)),
                h: rng.gen_range(2..(height / 4).max(3)),
                brightness: rng.gen_range(180..=255),
            })
            .collect();
        Self {
            width,
            height,
            background,
            objects,
        }
    }

    /// Bytes per frame.
    pub fn frame_bytes(&self) -> usize {
        self.width * self.height
    }

    /// Render frame `t`.
    pub fn frame(&self, t: usize) -> Vec<u8> {
        let mut frame = self.background.clone();
        for obj in &self.objects {
            // Bounce the object inside the scene.
            let period_x = 2.0 * (self.width as f32 - obj.w as f32).max(1.0);
            let period_y = 2.0 * (self.height as f32 - obj.h as f32).max(1.0);
            let pos = |start: f32, vel: f32, period: f32| -> f32 {
                let raw = (start + vel * t as f32).rem_euclid(period);
                if raw < period / 2.0 {
                    raw
                } else {
                    period - raw
                }
            };
            let ox = pos(obj.x, obj.dx, period_x) as usize;
            let oy = pos(obj.y, obj.dy, period_y) as usize;
            for y in oy..(oy + obj.h).min(self.height) {
                for x in ox..(ox + obj.w).min(self.width) {
                    frame[y * self.width + x] = obj.brightness;
                }
            }
        }
        frame
    }

    /// Render frames `[start, start + n)`.
    pub fn frames(&self, start: usize, n: usize) -> Vec<Vec<u8>> {
        (start..start + n).map(|t| self.frame(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Local hamming (avoid a cross-crate dev-dependency).
    fn hamming(a: &[u8], b: &[u8]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x ^ y).count_ones() as u64)
            .sum()
    }

    fn rng() -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn sizes_match_declared() {
        let mut r = rng();
        for kind in DatasetKind::ALL {
            let items = kind.generate(5, &mut r);
            assert_eq!(items.len(), 5);
            for item in &items {
                assert_eq!(item.len(), kind.item_bytes(), "{}", kind.name());
            }
        }
    }

    #[test]
    fn generate_sized_resizes() {
        let mut r = rng();
        let items = DatasetKind::MnistLike.generate_sized(3, 256, &mut r);
        assert!(items.iter().all(|i| i.len() == 256));
        let small = DatasetKind::CifarLike.generate_sized(3, 64, &mut r);
        assert!(small.iter().all(|i| i.len() == 64));
    }

    #[test]
    fn images_cluster_within_class() {
        // Same-class items must be much closer than cross-class pairs
        // on average: that is the property the placement model exploits.
        let mut r = rng();
        let items = DatasetKind::MnistLike.generate(400, &mut r);
        // Estimate: nearest-neighbour distance should be far below the
        // distance to a random other item.
        let probe = &items[0];
        let mut dists: Vec<u64> = items[1..].iter().map(|i| hamming(probe, i)).collect();
        dists.sort_unstable();
        let nearest = dists[0] as f64;
        let median = dists[dists.len() / 2] as f64;
        assert!(
            nearest * 2.0 < median,
            "no cluster structure: nearest={nearest} median={median}"
        );
    }

    #[test]
    fn mnist_and_fashion_templates_differ() {
        let mut r = rng();
        let m = DatasetKind::MnistLike.generate(50, &mut r);
        let f = DatasetKind::FashionLike.generate(50, &mut r);
        let cross: u64 = m.iter().zip(&f).map(|(a, b)| hamming(a, b)).sum();
        let within: u64 = m.windows(2).map(|w| hamming(&w[0], &w[1])).sum();
        assert!(cross > within / 2, "families indistinguishable");
    }

    #[test]
    fn road_network_is_temporally_smooth() {
        let mut r = rng();
        let pts = DatasetKind::RoadNetwork.generate(100, &mut r);
        let adjacent: u64 = pts.windows(2).map(|w| hamming(&w[0], &w[1])).sum();
        let far: u64 = (0..99)
            .map(|i| hamming(&pts[i], &pts[(i + 50) % 100]))
            .sum();
        assert!(adjacent < far, "adjacent={adjacent} far={far}");
    }

    #[test]
    fn video_frames_temporally_correlated() {
        let mut r = rng();
        let video = VideoDataset::new(80, 60, 3, &mut r);
        let f0 = video.frame(0);
        let f1 = video.frame(1);
        let f50 = video.frame(50);
        let near = hamming(&f0, &f1);
        let far = hamming(&f0, &f50);
        assert!(near < far, "near={near} far={far}");
        assert_eq!(f0.len(), video.frame_bytes());
        // Background dominates: consecutive frames differ in a small
        // fraction of bits.
        assert!(
            (near as f64) < 0.1 * (f0.len() * 8) as f64,
            "frames not background-stable: {near}"
        );
    }

    #[test]
    fn video_objects_actually_move() {
        let mut r = rng();
        let video = VideoDataset::new(64, 48, 2, &mut r);
        let frames = video.frames(0, 10);
        assert_eq!(frames.len(), 10);
        let moved = frames.windows(2).any(|w| w[0] != w[1]);
        assert!(moved, "static video");
    }

    #[test]
    fn pubmed_rows_sparse() {
        let mut r = rng();
        let rows = DatasetKind::PubMed.generate(20, &mut r);
        for row in &rows {
            let zeros = row.iter().filter(|&&b| b == 0).count();
            assert!(zeros * 2 > row.len(), "row not sparse");
        }
    }

    /// FNV-1a over every item's length and bytes.
    fn digest(items: &[Vec<u8>]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for item in items {
            for &b in (item.len() as u64).to_le_bytes().iter().chain(item) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
        }
        h
    }

    /// A kind's stream from one seed: the digests of `generate(n)` and
    /// then of `generate_sized(n, 200)` (tiled or cut), and the RNG's
    /// next word after both.
    fn stream(kind: DatasetKind) -> [u64; 3] {
        let mut r = rng();
        let natural = digest(&kind.generate(120, &mut r));
        let sized = digest(&kind.generate_sized(40, 200, &mut r));
        [natural, sized, r.next_u64()]
    }

    #[test]
    fn mnist_stream_is_pinned() {
        assert_eq!(
            stream(DatasetKind::MnistLike),
            [
                0xCB2C_F98A_16A2_CEF9,
                0xCFFB_5D2B_0E91_E7C4,
                0xED20_02BC_0DF3_D744
            ]
        );
    }

    #[test]
    fn fashion_stream_is_pinned() {
        assert_eq!(
            stream(DatasetKind::FashionLike),
            [
                0x3C3C_0BA4_8CBD_43F9,
                0xB2EB_F1BE_BCF4_B1BF,
                0xED20_02BC_0DF3_D744
            ]
        );
    }

    #[test]
    fn cifar_stream_is_pinned() {
        assert_eq!(
            stream(DatasetKind::CifarLike),
            [
                0x9DF3_E976_06F2_7370,
                0x6916_E9D8_E7FF_B7CF,
                0xBB33_246A_5C3C_0813
            ]
        );
    }

    #[test]
    fn imagenet_stream_is_pinned() {
        assert_eq!(
            stream(DatasetKind::ImagenetLike),
            [
                0x0D8A_24C0_52EB_3CF0,
                0xC1E7_7D37_580B_27A8,
                0x3B10_D5F3_04E2_3D8E
            ]
        );
    }

    #[test]
    fn amazon_stream_is_pinned() {
        assert_eq!(
            stream(DatasetKind::AmazonAccess),
            [
                0x96A4_5F0B_12EE_7C7D,
                0x59D8_3408_A948_48A9,
                0x7E3E_6450_2408_C3AF
            ]
        );
    }

    #[test]
    fn road_network_stream_is_pinned() {
        assert_eq!(
            stream(DatasetKind::RoadNetwork),
            [
                0x5208_0EA4_B54A_E2A9,
                0xF3A0_A522_655E_6F5A,
                0xB1E8_54F0_E794_FE6E
            ]
        );
    }

    #[test]
    fn pubmed_stream_is_pinned() {
        assert_eq!(
            stream(DatasetKind::PubMed),
            [
                0xA4B1_6845_5B81_76F4,
                0x4E1B_68B4_4849_B39F,
                0xC504_2FB0_2FCD_3120
            ]
        );
    }

    /// The loop [`flip_noise`] replaced: one `gen_bool` per bit.
    fn flip_noise_by_gen_bool<R: Rng>(template: &[u8], p: f64, rng: &mut R) -> Vec<u8> {
        template
            .iter()
            .map(|&byte| {
                let mut b = byte;
                for bit in 0..8 {
                    if rng.gen_bool(p) {
                        b ^= 1 << bit;
                    }
                }
                b
            })
            .collect()
    }

    /// A stream that cycles through `words`.
    struct Words<'a>(std::iter::Cycle<std::slice::Iter<'a, u64>>);

    impl RngCore for Words<'_> {
        fn next_u64(&mut self) -> u64 {
            *self.0.next().expect("a cycle never ends")
        }
    }

    /// Same bytes and same RNG state after every call, at the noise
    /// levels the generators use, the ends of [0, 1] and 0.5 (where
    /// p · 2⁵³ is an integer), for one byte, a short tail and a whole
    /// 28 × 28 image — from a random stream, and from one of the words
    /// at the split, which a random stream all but never draws.
    #[test]
    fn flip_noise_is_the_gen_bool_loop() {
        for p in [0.0, 0.06, 0.10, 0.5, 1.0] {
            let t = gen_bool_threshold(p);
            let edges = [
                t << 11,
                (t << 11).wrapping_sub(1),
                (t << 11) | 0x7FF,
                0,
                u64::MAX,
            ];
            let template = [0x00, 0xFF, 0x5A, 0xA5, 0x0F];
            let expected = flip_noise_by_gen_bool(&template, p, &mut Words(edges.iter().cycle()));
            let mut out = [0u8; 5];
            flip_noise(&template, t, &mut Words(edges.iter().cycle()), &mut out);
            assert_eq!(out, expected[..], "p {p} at the split");
            for len in [1, 7, 98] {
                let template: Vec<u8> = (0..len)
                    .map(|i| (i as u8).wrapping_mul(73) ^ 0x5A)
                    .collect();
                let mut reference = rng();
                let mut r = reference.clone();
                let mut out = vec![0u8; len];
                for draw in 0..64 {
                    let expected = flip_noise_by_gen_bool(&template, p, &mut reference);
                    flip_noise(&template, gen_bool_threshold(p), &mut r, &mut out);
                    assert_eq!(out, expected, "p {p}, len {len}, draw {draw}");
                    assert_eq!(r, reference, "p {p}, len {len}, draw {draw}");
                }
            }
        }
    }

    /// The threshold splits the 53-bit draws exactly where `gen_bool`'s
    /// float compare does, checked on both sides of the split.
    #[test]
    fn the_threshold_is_gen_bools_split() {
        let unit = |m: u64| m as f64 * (1.0 / (1u64 << 53) as f64);
        let ps = [
            0.0,
            f64::MIN_POSITIVE,
            1e-300,
            0.06,
            0.1,
            1.0 / 3.0,
            0.5,
            0.5f64.next_up(),
            0.5f64.next_down(),
            1.0f64.next_down(),
            1.0,
        ];
        for p in ps {
            let t = gen_bool_threshold(p);
            for m in [t.saturating_sub(2), t.saturating_sub(1), t, t + 1] {
                let m = m.min((1u64 << 53) - 1);
                assert_eq!(m < t, unit(m) < p, "p {p}, m {m}");
            }
        }
        assert_eq!(gen_bool_threshold(0.0), 0);
        assert_eq!(gen_bool_threshold(1.0), 1 << 53);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn the_threshold_refuses_what_gen_bool_refuses() {
        gen_bool_threshold(1.5);
    }

    #[test]
    fn resize_tiles_and_cuts() {
        assert_eq!(resize_item(&[1, 2, 3], 7), [1, 2, 3, 1, 2, 3, 1]);
        assert_eq!(resize_item(&[1, 2, 3], 2), [1, 2]);
        assert!(resize_item(&[1], 0).is_empty());
    }

    #[test]
    fn amazon_has_hot_users() {
        let mut r = rng();
        let recs = amazon_access(2000, &mut r);
        let mut users: std::collections::HashMap<u32, usize> = Default::default();
        for rec in &recs {
            let user = u32::from_le_bytes(rec[..4].try_into().unwrap());
            *users.entry(user).or_default() += 1;
        }
        let max = *users.values().max().unwrap();
        assert!(max > 20, "no hot user: {max}");
    }
}
