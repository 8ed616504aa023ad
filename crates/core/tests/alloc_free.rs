//! Pins "allocation-free": once its scratch is warm, the serving path —
//! pad + predict on place (and rank on a fallback), classify on
//! recycle — never touches the heap,
//! neither does a whole updating `E2Engine::put`, which runs the
//! model in full exactly once, and neither does a range scan visited
//! through the store's reusable buffer — and PCA training builds no
//! float copy of its sample. Its own test binary, because it has
//! to own the global allocator.

use e2nvm_core::{
    E2Config, E2Engine, E2Model, Padder, PaddingLocation, PaddingType, PlacementModel,
    PlacementScratch, ShardedEngine, Stage,
};
use e2nvm_kvstore::{NvmKvStore, ShardedE2KvStore};
use e2nvm_sim::{partition_controllers, DeviceConfig, LogicalSegment, MemoryController, NvmDevice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes requested by each thread
/// while it is armed, on that thread alone: the tests run in parallel,
/// and one test's allocation must fail that test only (the test
/// harness's own threads allocate at will).
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    if ARMED.with(Cell::get) {
        BYTES.with(|b| b.set(b.get() + bytes as u64));
    }
}

/// Run `f` with the allocator armed on this thread; the bytes it
/// requested.
fn bytes_allocated_by(f: impl FnOnce()) -> u64 {
    BYTES.with(|b| b.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    BYTES.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// const-initialized, destructor-free thread-locals, which do not
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Both kinds of model: the VAE's two hidden layers and PCA's one.
const MODELS: [PlacementModel; 2] = [PlacementModel::Vae, PlacementModel::PcaKMeans];

#[test]
fn warm_scratch_predicts_without_allocating() {
    for kind in MODELS {
        warm_scratch_predicts_without_allocating_for(kind);
    }
}

fn warm_scratch_predicts_without_allocating_for(kind: PlacementModel) {
    const SEGMENT: usize = 32;
    let mut rng = StdRng::seed_from_u64(11);
    let segments: Vec<Vec<u8>> = (0..64)
        .map(|_| (0..SEGMENT).map(|_| rng.gen()).collect())
        .collect();
    let cfg = E2Config::builder()
        .fast(SEGMENT, 6)
        .model(kind)
        .hidden(vec![16, 8])
        .pretrain_epochs(1)
        .joint_epochs(1)
        .build()
        .unwrap();
    let model = E2Model::train(&cfg, &segments, &mut rng);
    // Every generator but the learned one, whose LSTM steps run on the
    // batched `Matrix` path.
    let padders: Vec<Padder> = PaddingLocation::ALL
        .into_iter()
        .flat_map(|location| {
            PaddingType::ALL
                .into_iter()
                .filter(|&t| t != PaddingType::Learned)
                .map(move |t| Padder::new(location, t))
        })
        .collect();

    let mut scratch = PlacementScratch::default();
    model.order_into(&segments[0][..5], &padders[0], &mut rng, &mut scratch);
    model.classify(&segments[0], &mut scratch);

    let mut checksum = 0usize;
    let bytes = bytes_allocated_by(|| {
        for i in 0..1000 {
            let segment = &segments[i % segments.len()];
            let padder = &padders[i % padders.len()];
            let value = &segment[..i % (SEGMENT + 1)];
            checksum += model.order_into(value, padder, &mut rng, &mut scratch)[0];
            checksum += model.classify(segment, &mut scratch);
        }
    });

    assert_eq!(bytes, 0, "the warm serving path of {kind:?} allocated");
    assert!(checksum < 2 * 1000 * model.k());
}

/// An updating PUT end to end: one full prediction places the value,
/// one resumed pass tags the segment it landed on, and the displaced
/// segment goes back to the pool by its tag — no second model call,
/// no heap, also on the PUTs the stage clock arms and on a PUT whose
/// nearest cluster is empty, which ranks every cluster to fall back.
#[test]
fn warm_tagged_put_is_one_full_prediction_and_no_allocation() {
    for kind in MODELS {
        warm_tagged_put_for(kind);
    }
}

fn warm_tagged_put_for(kind: PlacementModel) {
    const SEGMENT: usize = 32;
    const VALUE: usize = 24;
    const KEYS: u64 = 8;
    let mut rng = StdRng::seed_from_u64(12);
    let dev = NvmDevice::new(
        DeviceConfig::builder()
            .segment_bytes(SEGMENT)
            .num_segments(128)
            .build()
            .unwrap(),
    );
    let cfg = E2Config::builder()
        .fast(SEGMENT, 4)
        .model(kind)
        .hidden(vec![16, 8])
        .pretrain_epochs(1)
        .joint_epochs(1)
        .retrain_min_free(0)
        .padding_type(PaddingType::Zero)
        .build()
        .unwrap();
    let mut engine = E2Engine::new(MemoryController::without_wear_leveling(dev), cfg).unwrap();
    // Every segment ends in zeros, so a written segment holds exactly
    // the zero-padded value the placement predicted for: it is popped
    // from and later pushed back to the same cluster, and no free list
    // ever outgrows the capacity it was built with.
    for i in 0..128 {
        let mut content: Vec<u8> = (0..SEGMENT).map(|_| rng.gen()).collect();
        content[VALUE..].fill(0);
        engine
            .controller_mut()
            .seed(LogicalSegment(i), &content)
            .unwrap();
    }
    engine.train().unwrap();
    let values: Vec<Vec<u8>> = (0..64)
        .map(|_| (0..VALUE).map(|_| rng.gen()).collect())
        .collect();
    for (i, value) in values.iter().enumerate() {
        engine.put(i as u64 % KEYS, value).unwrap();
    }

    // Drain the cluster nearest to one value, so that its PUT in the
    // window below falls back: the first ranking of every cluster on
    // this engine runs there, on buffers sized by the first prediction.
    let drained = &values[0];
    let nearest = engine.model().unwrap().nearest_into(
        drained,
        &Padder::new(PaddingLocation::End, PaddingType::Zero),
        &mut rng,
        &mut PlacementScratch::default(),
    );
    while engine.dap().cluster_len(nearest) > 0 {
        engine.place_value(drained).unwrap();
    }
    let fallbacks = engine.telemetry().fallbacks.get();

    let before = engine.prediction_stats();
    // Every stage an updating PUT runs.
    let stages = [
        Stage::Op,
        Stage::Order,
        Stage::Pop,
        Stage::Write,
        Stage::Tag,
        Stage::Recycle,
    ];
    let samples = |engine: &E2Engine| stages.map(|s| engine.telemetry().stage_ns(s).count());
    let samples_before = samples(&engine);
    let bytes = bytes_allocated_by(|| {
        engine.put(0, drained).unwrap();
        for i in 1..1000 {
            engine
                .put(i as u64 % KEYS, &values[(i * 7) % values.len()])
                .unwrap();
        }
    });
    let after = engine.prediction_stats();
    let samples_after = samples(&engine);

    assert_eq!(bytes, 0, "a warm PUT of {kind:?} allocated");
    for ((stage, before), after) in stages.iter().zip(samples_before).zip(samples_after) {
        assert!(
            after - before >= 1000 / 64,
            "{stage:?}: {before} -> {after}"
        );
    }
    assert!(engine.telemetry().fallbacks.get() > fallbacks);
    assert_eq!(after.predictions - before.predictions, 1000);
    assert_eq!(after.resumed - before.resumed, 1000);
    assert_eq!(after.tag_hits - before.tag_hits, 1000);
    assert_eq!(after.tag_fallbacks, before.tag_fallbacks);
}

/// PCA training reads its sample as packed bits and walks set-bit
/// lists: all of `E2Model::train` — sample, split, fit, scores, K-means
/// starts, losses and the placer — asks for fewer bytes than one
/// `n × d` float matrix of the sample would hold. The rows are random,
/// half their bits set: more than any content the engine stores.
#[test]
fn pca_training_builds_no_float_copy_of_its_sample() {
    const SEGMENT: usize = 128;
    const ROWS: usize = 1024;
    let mut rng = StdRng::seed_from_u64(12);
    let segments: Vec<Vec<u8>> = (0..ROWS)
        .map(|_| (0..SEGMENT).map(|_| rng.gen()).collect())
        .collect();
    let cfg = E2Config::builder()
        .fast(SEGMENT, 10)
        .model(PlacementModel::PcaKMeans)
        .train_sample_cap(ROWS)
        .build()
        .unwrap();
    let bytes = bytes_allocated_by(|| {
        std::hint::black_box(E2Model::train(&cfg, &segments, &mut rng));
    });
    let float_copy = (ROWS * SEGMENT * 8 * std::mem::size_of::<f32>()) as u64;
    assert!(
        bytes < float_copy,
        "training allocated {bytes} B, an n × d float copy is {float_copy} B"
    );
}

/// A scan through `NvmKvStore::scan_visit` — the call the server makes
/// per page — keeps its winners in the store handle's own buffer and
/// visits them in device memory: once a scan at least as large has
/// warmed the buffer, the shards' cursors are merged under every lock,
/// the losers counted and the winners visited without the heap — at
/// one shard, and at three and five, where the stack of cursors is
/// deeper. Most limits are below the matches, so the merge leaves
/// losers behind.
#[test]
fn warm_visited_scan_does_not_allocate() {
    for shards in [1, 3, 5] {
        warm_visited_scan_does_not_allocate_at(shards);
    }
}

fn warm_visited_scan_does_not_allocate_at(shards: usize) {
    const SEGMENT: usize = 32;
    const KEYS: u64 = 144;
    let mut rng = StdRng::seed_from_u64(13);
    let dev_cfg = DeviceConfig::builder()
        .segment_bytes(SEGMENT)
        .num_segments(384)
        .build()
        .unwrap();
    let cfg = E2Config::builder()
        .fast(SEGMENT, 2)
        .hidden(vec![16, 8])
        .pretrain_epochs(1)
        .joint_epochs(1)
        .retrain_min_free(0)
        .padding_type(PaddingType::Zero)
        .build()
        .unwrap();
    let controllers = partition_controllers(&dev_cfg, shards)
        .unwrap()
        .into_iter()
        .map(|(_, mut mc)| {
            for i in 0..mc.num_segments() {
                let content: Vec<u8> = (0..SEGMENT).map(|_| rng.gen()).collect();
                mc.seed(LogicalSegment(i), &content).unwrap();
            }
            mc
        })
        .collect();
    let mut store = ShardedE2KvStore::new(ShardedEngine::train(controllers, &cfg).unwrap());
    for key in 0..KEYS {
        store.put(key, &[key as u8; 24]).unwrap();
    }
    // Warm the buffer with the largest scan the loop below makes.
    store.scan_visit(0, KEYS, 64, &mut |_, _| true).unwrap();

    let mut bytes_seen = 0usize;
    let mut visited = 0usize;
    let reads_before = store.stats().reads;
    let bytes = bytes_allocated_by(|| {
        for i in 0..1000u64 {
            let lo = i % KEYS;
            let limit = 1 + (i as usize * 7) % 64;
            visited += store
                .scan_visit(lo, KEYS, limit, &mut |_, value| {
                    bytes_seen += value.len();
                    true
                })
                .unwrap();
        }
    });

    assert_eq!(bytes, 0, "a warm scan allocated ({shards} shards)");
    assert!(visited > 1000);
    assert_eq!(bytes_seen, visited * 24);
    let reads = store.stats().reads - reads_before;
    if shards == 1 {
        assert_eq!(reads, visited as u64, "one shard has no losers");
    } else {
        // Losers were counted and charged, so the merge left some.
        assert!(reads > visited as u64, "{shards} shards");
    }
}
