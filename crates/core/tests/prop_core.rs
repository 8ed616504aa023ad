//! Property tests for the core invariants DESIGN.md calls out:
//! padding output width and stored-bytes neutrality and DAP
//! conservation under interleaved traffic — plus
//! the exhaustive check that the packed-bit prediction kernel decides
//! exactly what the batched `Matrix` path decides, and the twin check
//! that recycling by write-time cluster tag decides exactly what
//! classifying the content decides.

use e2nvm_core::padding::LearnedPadder;
use e2nvm_core::{
    DynamicAddressPool, E2Config, E2Engine, E2Model, Padder, PaddingLocation, PaddingType,
    PlacementModel, PlacementScratch,
};
use e2nvm_ml::data::{bytes_to_features, segments_to_matrix};
use e2nvm_ml::{BitMatrix, ClusterModel, Matrix};
use e2nvm_sim::{DeviceConfig, FaultConfig, LogicalSegment, MemoryController, NvmDevice};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::OnceLock;

fn any_location() -> impl Strategy<Value = PaddingLocation> {
    prop_oneof![
        Just(PaddingLocation::Beginning),
        Just(PaddingLocation::Middle),
        Just(PaddingLocation::End),
    ]
}

fn any_type() -> impl Strategy<Value = PaddingType> {
    prop_oneof![
        Just(PaddingType::Zero),
        Just(PaddingType::One),
        Just(PaddingType::Random),
        Just(PaddingType::InputBased),
        Just(PaddingType::DatasetBased),
        Just(PaddingType::MemoryBased),
        Just(PaddingType::Learned),
    ]
}

/// What a [`Padder`] under test was told, so [`float_padding`] can
/// generate from the same state.
struct PadderState<'a> {
    location: PaddingLocation,
    ptype: PaddingType,
    /// Everything passed to `Padder::observe`, concatenated.
    observed: &'a [u8],
    memory_ratio: f32,
    /// A generator trained exactly as the padder's own, if it has one.
    learned: Option<&'a LearnedPadder>,
}

/// The reference padding: one `f32` feature per bit, generated type by
/// type and assembled location by location the way `Padder::pad` did
/// while it returned a `Vec<f32>`. The packed padding must unpack to
/// exactly this, having drawn from `rng` exactly as often.
fn float_padding(
    state: &PadderState,
    data: &[u8],
    target_bits: usize,
    rng: &mut impl Rng,
) -> Vec<f32> {
    let data_bits = bytes_to_features(data);
    let q = target_bits - data_bits.len();
    if q == 0 {
        return data_bits;
    }
    let mut bernoulli =
        |p: f32| -> Vec<f32> { (0..q).map(|_| f32::from(rng.gen::<f32>() < p)).collect() };
    let pad_bits: Vec<f32> = match (state.ptype, state.learned) {
        (PaddingType::Zero, _) => vec![0.0; q],
        (PaddingType::One, _) => vec![1.0; q],
        (PaddingType::Random, _) => (0..q).map(|_| f32::from(rng.gen::<bool>())).collect(),
        (PaddingType::InputBased, _) => bernoulli(ones_share(data)),
        (PaddingType::DatasetBased, _) | (PaddingType::Learned, None) => {
            bernoulli(ones_share(state.observed))
        }
        (PaddingType::MemoryBased, _) => bernoulli(state.memory_ratio),
        (PaddingType::Learned, Some(generator)) => {
            let mut bits = vec![0.0; q];
            generator.generate(data, q, |j| bits[j] = 1.0);
            bits
        }
    };
    let before = match state.location {
        PaddingLocation::Beginning => q,
        PaddingLocation::Middle => q / 2,
        PaddingLocation::End => 0,
    };
    [&pad_bits[..before], &data_bits[..], &pad_bits[before..]].concat()
}

/// Share of one-bits in `bytes`, 0.5 when there are none to count.
fn ones_share(bytes: &[u8]) -> f32 {
    if bytes.is_empty() {
        return 0.5;
    }
    let ones: f32 = bytes_to_features(bytes).iter().sum();
    ones / (bytes.len() * 8) as f32
}

/// A padder with a trained LSTM generator plus an identically trained
/// twin of that generator for [`float_padding`].
fn trained_learned(location: PaddingLocation, seed: u64) -> (Padder, LearnedPadder) {
    let segments: Vec<Vec<u8>> = (0..12u8)
        .map(|s| {
            (0..24u8)
                .map(|i| i.wrapping_mul(7) ^ s.wrapping_mul(29))
                .collect()
        })
        .collect();
    let mut padder = Padder::new(location, PaddingType::Learned);
    padder.train_learned(&segments, 1, &mut StdRng::seed_from_u64(seed));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut twin = LearnedPadder::new(&mut rng);
    twin.train(&segments, 1, &mut rng);
    (padder, twin)
}

/// Geometry of the tag-vs-content twin test.
const TWIN_SEGMENT: usize = 16;
const TWIN_SEGMENTS: usize = 48;
const TWIN_KEYS: u64 = 12;

/// The twin test's config, the content its devices start with, and two
/// differently trained models to swap between.
fn twin_fixture() -> &'static (E2Config, Vec<Vec<u8>>, [E2Model; 2]) {
    static FIXTURE: OnceLock<(E2Config, Vec<Vec<u8>>, [E2Model; 2])> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let cfg = E2Config::builder()
            .fast(TWIN_SEGMENT, 4)
            .model(PlacementModel::Vae)
            .hidden(vec![12])
            .pretrain_epochs(2)
            .joint_epochs(1)
            .retrain_min_free(0)
            .padding_type(PaddingType::Zero)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        // Four loose families, so all four clusters get members.
        let contents: Vec<Vec<u8>> = (0..TWIN_SEGMENTS)
            .map(|i| {
                let base = [0x00u8, 0xFF, 0x0F, 0xAA][i % 4];
                (0..TWIN_SEGMENT)
                    .map(|_| base ^ (rng.gen::<u8>() & rng.gen::<u8>() & rng.gen::<u8>()))
                    .collect()
            })
            .collect();
        let models =
            [3, 4].map(|seed| E2Model::train(&cfg, &contents, &mut StdRng::seed_from_u64(seed)));
        (cfg, contents, models)
    })
}

/// A served engine over a fresh device: optionally behind start-gap
/// wear leveling, optionally with transient write failures and an
/// endurance budget small enough that segments retire mid-schedule.
fn twin_engine(wear_leveled: bool, faulty: bool) -> E2Engine {
    let (cfg, contents, models) = twin_fixture();
    let mut dev_cfg = DeviceConfig::builder()
        .segment_bytes(TWIN_SEGMENT)
        .num_segments(TWIN_SEGMENTS);
    if faulty {
        dev_cfg = dev_cfg.fault(FaultConfig {
            seed: 5,
            endurance_bits: 900,
            endurance_shape: 3.0,
            transient_rate: 0.15,
        });
    }
    let dev = NvmDevice::new(dev_cfg.build().unwrap());
    let controller = if wear_leveled {
        MemoryController::with_start_gap(dev, 5)
    } else {
        MemoryController::without_wear_leveling(dev)
    };
    let mut engine = E2Engine::new(controller, cfg.clone()).unwrap();
    // Start-gap keeps one physical segment back.
    let logical = engine.controller().num_segments();
    for (i, content) in contents.iter().enumerate().take(logical) {
        engine
            .controller_mut()
            .seed(LogicalSegment(i), content)
            .unwrap();
    }
    engine.install_model_now(models[0].clone()).unwrap();
    engine
}

/// Save-and-recover in memory: a fresh engine over a copy of the device
/// and controller state, restored from the exported engine state.
fn recovered(engine: &E2Engine) -> E2Engine {
    let controller = MemoryController::from_state(
        engine.controller().device().clone(),
        &engine.controller().export_state(),
    )
    .unwrap();
    let mut fresh = E2Engine::new(controller, engine.config().clone()).unwrap();
    fresh
        .restore_state(&engine.export_state().unwrap())
        .unwrap();
    fresh
}

/// One step of a twin schedule; the `Debug` text of what it returned.
fn twin_step(engine: &mut E2Engine, op: &(u8, u8, u8, Vec<u8>), installs: &mut usize) -> String {
    let (kind, a, b, bytes) = op;
    let key = u64::from(*a) % TWIN_KEYS;
    match kind % 10 {
        0..=3 => format!("{:?}", engine.put(key, bytes)),
        4 | 5 => {
            // Four puts in one step: a repeated key recycles, by its
            // tag, a segment this same step wrote; an empty value rides
            // along when the bytes say so.
            let cut = bytes.len().min(5);
            let pairs: [(u64, &[u8]); 4] = [
                (key, &bytes[..cut]),
                (u64::from(*b) % TWIN_KEYS, &bytes[cut..bytes.len().min(9)]),
                ((key + 1) % TWIN_KEYS, &bytes[..bytes.len().min(3)]),
                ((key + 2) % TWIN_KEYS, &bytes[..cut]),
            ];
            let results: Vec<_> = pairs.iter().map(|&(k, v)| engine.put(k, v)).collect();
            format!("{results:?}")
        }
        6 => format!("{:?}", engine.delete(key)),
        7 => {
            *installs += 1;
            engine
                .install_model_now(twin_fixture().2[*installs % 2].clone())
                .unwrap();
            String::new()
        }
        8 => {
            // An integrator's in-place patch: a live segment rewritten
            // into another family when there is one to pick, else a few
            // bytes anywhere.
            let live = engine.export_state().unwrap().entries;
            let family = [[0x00u8, 0xFF, 0x0F, 0xAA][usize::from(*b) % 4]; TWIN_SEGMENT];
            let (seg, off, patch) = if live.is_empty() || bytes.len() % 2 == 1 {
                let off = usize::from(*b) % TWIN_SEGMENT;
                let seg = usize::from(*a) % engine.controller().num_segments();
                (
                    LogicalSegment(seg),
                    off,
                    &bytes[..bytes.len().min(TWIN_SEGMENT - off)],
                )
            } else {
                (live[usize::from(*a) % live.len()].1, 0, &family[..])
            };
            format!("{:?}", engine.controller_mut().write_at(seg, off, patch))
        }
        _ => {
            *engine = recovered(engine);
            String::new()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Recycling by write-time tag is recycling by content: under any
    /// schedule of puts, runs of puts, deletes, model installs,
    /// in-place patches through `controller_mut()` and save/recover
    /// cycles — with wear leveling moving segments and faults retiring
    /// them — the engine ends every step exactly where a twin ends
    /// that has its tags voided before each step, and so classifies the
    /// content of every segment it recycles that an earlier step wrote.
    /// (A tag set and used inside one run of puts serves the twin too;
    /// there, and everywhere else, a debug build asserts each tag
    /// against the content as it is used.)
    #[test]
    fn tagged_recycling_equals_classifying_every_time(
        ops in proptest::collection::vec(
            (0u8..10, any::<u8>(), any::<u8>(),
             proptest::collection::vec(any::<u8>(), 0..TWIN_SEGMENT + 1)),
            1..70),
        wear_leveled in any::<bool>(),
        faulty in any::<bool>(),
    ) {
        let mut tagged = twin_engine(wear_leveled, faulty);
        let mut twin = twin_engine(wear_leveled, faulty);
        let (mut installs, mut twin_installs) = (0, 0);
        for (i, op) in ops.iter().enumerate() {
            twin.controller_mut();
            let got = twin_step(&mut tagged, op, &mut installs);
            let expect = twin_step(&mut twin, op, &mut twin_installs);
            prop_assert_eq!(got, expect, "result of op {} {:?}", i, op);
            prop_assert_eq!(tagged.dap(), twin.dap(), "pool after op {} {:?}", i, op);
            prop_assert_eq!(tagged.export_state().unwrap(), twin.export_state().unwrap());
            prop_assert_eq!(tagged.device_stats(), twin.device_stats());
        }
        for key in 0..TWIN_KEYS {
            prop_assert_eq!(tagged.get(key), twin.get(key));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Padding always produces exactly the model width, the data bits
    /// appear intact at the configured location, and the packed output
    /// is bit for bit the float reference, with the RNG left in the
    /// same state.
    #[test]
    fn padding_width_and_data_intact(
        data in proptest::collection::vec(any::<u8>(), 0..24),
        extra_bytes in 0usize..16,
        loc in any_location(),
        ptype in any_type(),
        train_learned in any::<bool>(),
        ratio in 0.0f32..1.0,
        seed in 0u64..1000,
    ) {
        let target_bits = (data.len() + extra_bytes) * 8;
        let (mut padder, twin) = if ptype == PaddingType::Learned && train_learned {
            let (padder, twin) = trained_learned(loc, seed);
            (padder, Some(twin))
        } else {
            // An untrained learned padder falls back gracefully.
            (Padder::new(loc, ptype), None)
        };
        padder.observe(&data);
        padder.set_memory_ratio(ratio);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut packed = vec![0u8; target_bits / 8];
        padder.pad(&data, &mut packed, &mut rng);
        let out = bytes_to_features(&packed);
        prop_assert_eq!(out.len(), target_bits);
        // Locate the data bits.
        let q = target_bits - data.len() * 8;
        let start = match loc {
            PaddingLocation::Beginning => q,
            PaddingLocation::Middle => q / 2,
            PaddingLocation::End => 0,
        };
        let expect = bytes_to_features(&data);
        prop_assert_eq!(
            &out[start..start + expect.len()],
            &expect[..],
            "data bits not intact at {:?}", loc
        );
        let state = PadderState {
            location: loc,
            ptype,
            observed: &data,
            memory_ratio: ratio,
            learned: twin.as_ref(),
        };
        let mut ref_rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(out, float_padding(&state, &data, target_bits, &mut ref_rng));
        prop_assert_eq!(rng.next_u64(), ref_rng.next_u64(), "RNG drawn differently");
    }

    /// DAP conservation: across arbitrary interleavings of push/pop, no
    /// address is lost, duplicated, or handed out twice.
    #[test]
    fn dap_conservation(
        ops in proptest::collection::vec((any::<bool>(), 0usize..8), 1..200),
        k in 1usize..6,
    ) {
        let n = 64;
        let mut dap = DynamicAddressPool::new(k, n, 0);
        for i in 0..n {
            dap.push(i % k, LogicalSegment(i)).unwrap();
        }
        let mut held: Vec<LogicalSegment> = Vec::new();
        for (is_pop, c) in ops {
            let cluster = c % k;
            if is_pop {
                if let Some(seg) = dap.pop(cluster) {
                    prop_assert!(!dap.is_free(seg), "popped segment still free");
                    held.push(seg);
                }
            } else if let Some(seg) = held.pop() {
                dap.push(cluster, seg).unwrap();
            }
            prop_assert_eq!(dap.free_count() + held.len(), n);
        }
        // Every held segment is distinct.
        let mut ids: Vec<usize> = held.iter().map(|s| s.index()).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), held.len());
        // Double free is always rejected.
        if let Some(&seg) = held.first() {
            dap.push(0, seg).unwrap();
            prop_assert!(dap.push(0, seg).is_err());
        }
    }

    /// Quarantine invariant: once a segment is retired, the pool never
    /// hands it out again — not from `pop`, not after recycling
    /// attempts, not across a `rebuild` — and conservation holds over
    /// the shrunken capacity.
    #[test]
    fn dap_never_hands_out_retired(
        ops in proptest::collection::vec((0u8..4, 0usize..16), 1..250),
        k in 1usize..5,
    ) {
        let n = 32;
        let mut dap = DynamicAddressPool::new(k, n, 0);
        for i in 0..n {
            dap.push(i % k, LogicalSegment(i)).unwrap();
        }
        let mut held: Vec<LogicalSegment> = Vec::new();
        let mut retired: Vec<LogicalSegment> = Vec::new();
        for (op, x) in ops {
            match op {
                // Pop from some cluster.
                0 | 1 => {
                    if let Some(seg) = dap.pop(x % k) {
                        prop_assert!(!dap.is_retired(seg), "pop handed out a retired segment");
                        held.push(seg);
                    }
                }
                // Recycle a held segment.
                2 => {
                    if let Some(seg) = held.pop() {
                        dap.push(x % k, seg).unwrap();
                    }
                }
                // Retire: either a held segment (wore out mid-write) or
                // a free one (proactive scrubbing).
                _ => {
                    let seg = if x % 2 == 0 {
                        held.pop()
                    } else {
                        dap.pop_with_fallback(&(0..k).collect::<Vec<_>>()).map(|(s, _)| s)
                    };
                    if let Some(seg) = seg {
                        prop_assert!(dap.retire(seg));
                        prop_assert!(dap.push(0, seg).is_err(), "retired segment re-entered pool");
                        retired.push(seg);
                    }
                }
            }
            prop_assert_eq!(
                dap.free_count() + held.len() + retired.len(),
                n,
                "capacity not conserved under retirement"
            );
            prop_assert_eq!(dap.retired_count(), retired.len());
        }
        // A retrain-style rebuild classifying *every* segment must drop
        // exactly the retired ones.
        let assignments: Vec<(LogicalSegment, usize)> =
            (0..n).map(|i| (LogicalSegment(i), i % k)).collect();
        dap.rebuild(k, &assignments);
        prop_assert_eq!(dap.free_count(), n - retired.len());
        for seg in &retired {
            prop_assert!(!dap.is_free(*seg), "rebuild resurrected a retired segment");
            prop_assert!(dap.is_retired(*seg));
        }
    }
}

fn random_bytes(len: usize, rng: &mut StdRng) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}

/// The serving kernel reads packed bits and sums weight rows of set
/// bits; the batched `Matrix` path (`Vae::latent` on
/// `bytes_to_features` input + `KMeans`) is what it must agree with —
/// not approximately, because one differing cluster changes a
/// placement. The model serves the reference's placer as its bytes
/// load back. Every padding type × location (the learned generator
/// trained), every value length, one and two hidden layers.
#[test]
fn kernel_decides_what_the_matrix_path_decides() {
    const SEGMENT: usize = 16;
    let mut data_rng = StdRng::seed_from_u64(17);
    let segments: Vec<Vec<u8>> = (0..48)
        .map(|_| random_bytes(SEGMENT, &mut data_rng))
        .collect();
    for hidden in [vec![12], vec![12, 8]] {
        let cfg = E2Config::builder()
            .fast(SEGMENT, 5)
            .hidden(hidden.clone())
            .pretrain_epochs(2)
            .joint_epochs(1)
            .build()
            .unwrap();
        let (reference, _) = ClusterModel::train(
            &cfg.dec_config(),
            &BitMatrix::from_segments(&segments),
            None,
            &mut StdRng::seed_from_u64(3),
        );
        let model =
            E2Model::from_bytes(&E2Model::from_placer(reference.placer()).to_bytes()).unwrap();
        let reference_order = |padded: &[u8]| {
            let x = Matrix::from_vec(1, SEGMENT * 8, bytes_to_features(padded));
            let z = reference.vae().latent(&x);
            reference.kmeans().clusters_by_distance(z.row(0))
        };

        // Whole segments: Algorithm 2's re-classification and the pool
        // rebuild.
        let batch = reference.predict_batch(&segments_to_matrix(&segments));
        assert_eq!(model.classify_segments(&segments), batch);
        let mut scratch = PlacementScratch::default();
        for (segment, &cluster) in segments.iter().zip(&batch) {
            assert_eq!(model.classify(segment, &mut scratch), cluster);
            assert_eq!(model.predict_features(&bytes_to_features(segment)), cluster);
        }

        // Padded values: Algorithm 1's prediction.
        for location in PaddingLocation::ALL {
            for ptype in PaddingType::ALL {
                let mut padder = if ptype == PaddingType::Learned {
                    trained_learned(location, 5).0
                } else {
                    Padder::new(location, ptype)
                };
                padder.observe(&segments[0]);
                padder.set_memory_ratio(0.3);
                for len in 0..=SEGMENT {
                    let value = random_bytes(len, &mut data_rng);
                    let seed = len as u64;
                    let what = format!("{hidden:?} {} {} len {len}", location.name(), ptype.name());

                    let mut ref_rng = StdRng::seed_from_u64(seed);
                    let mut padded = [0u8; SEGMENT];
                    padder.pad(&value, &mut padded, &mut ref_rng);
                    let expect = reference_order(&padded);
                    let after = ref_rng.next_u64();

                    let mut rng = StdRng::seed_from_u64(seed);
                    let order = model.order_into(&value, &padder, &mut rng, &mut scratch);
                    assert_eq!(order, expect, "order_into, {what}");
                    assert_eq!(rng.next_u64(), after, "order_into RNG, {what}");

                    let mut rng = StdRng::seed_from_u64(seed);
                    let order = model.cluster_order(&value, &padder, &mut rng);
                    assert_eq!(order, expect, "cluster_order, {what}");
                    assert_eq!(rng.next_u64(), after, "cluster_order RNG, {what}");
                }
            }
        }
    }
}

/// A small trained model and its bytes, for the hostile-bytes tests.
fn hostile_fixture() -> &'static (E2Model, Vec<u8>) {
    static FIXTURE: OnceLock<(E2Model, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(41);
        let segments: Vec<Vec<u8>> = (0..48).map(|_| random_bytes(16, &mut rng)).collect();
        let cfg = E2Config::builder()
            .fast(16, 3)
            .model(PlacementModel::Vae)
            .hidden(vec![8])
            .latent_dim(4)
            .pretrain_epochs(2)
            .joint_epochs(1)
            .build()
            .unwrap();
        let model = E2Model::train(&cfg, &segments, &mut rng);
        let bytes = model.to_bytes();
        (model, bytes)
    })
}

/// What a loaded model must do, whatever its weights hold: classify a
/// segment of its width and order a value's clusters, without a panic.
fn serves(model: &E2Model) {
    let segment = vec![0xA5; model.input_bits() / 8];
    let mut scratch = PlacementScratch::default();
    assert!(model.classify(&segment, &mut scratch) < model.k());
    let padder = Padder::new(PaddingLocation::End, PaddingType::Zero);
    let value = &segment[..segment.len() / 2];
    let order = model.order_into(value, &padder, &mut StdRng::seed_from_u64(1), &mut scratch);
    assert_eq!(order.len(), model.k());
}

/// Every cut of a model's bytes short of the whole is refused.
#[test]
fn every_truncation_of_a_model_is_refused() {
    let (model, bytes) = hostile_fixture();
    serves(model);
    serves(&E2Model::from_bytes(bytes).unwrap());
    for cut in 0..bytes.len() {
        assert!(E2Model::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// One corrupted byte anywhere — a shape, a count, a tag, a weight
    /// — never panics the decoder, and whatever it accepts serves.
    #[test]
    fn a_corrupted_model_is_refused_or_serves(at in any::<usize>(), flip in 1u8..=255) {
        let mut bytes = hostile_fixture().1.clone();
        let at = at % bytes.len();
        bytes[at] ^= flip;
        if let Ok(model) = E2Model::from_bytes(&bytes) {
            serves(&model);
        }
    }
}
