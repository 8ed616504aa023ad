//! Pins "allocation-free" for the device's write path: a warm
//! `NvmDevice::write_at` under per-bit wear tracking records its flips
//! without touching the heap. Its own test binary, because it has to
//! own the global allocator.

use e2nvm_sim::{DeviceConfig, NvmDevice, PhysicalSegment, WearTracking};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting the bytes requested by threads that
/// have armed it (the test harness's own threads allocate at will).
struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if ARMED.with(Cell::get) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only an
// atomic and a const-initialized, destructor-free thread-local, neither
// of which allocates.
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

#[test]
fn warm_per_bit_write_at_does_not_allocate() {
    let mut dev = NvmDevice::new(
        DeviceConfig::builder()
            .segment_bytes(256)
            .num_segments(4)
            .wear_tracking(WearTracking::PerBit)
            .build()
            .unwrap(),
    );
    // Every write differs from what it lands on, in every line it
    // touches, so each line records flips; the offsets make some writes
    // partial and some straddle a line boundary.
    let values: Vec<Vec<u8>> = (0..8u8)
        .map(|v| {
            (0..256)
                .map(|i| (i as u8).wrapping_mul(31) ^ v.wrapping_mul(73))
                .collect()
        })
        .collect();
    dev.write(PhysicalSegment(0), &values[0]).unwrap();

    ARMED.with(|armed| armed.set(true));
    for i in 0..400 {
        let seg = PhysicalSegment(i % 4);
        let offset = (i * 37) % 128;
        let value = &values[i % values.len()];
        dev.write_at(seg, offset, &value[offset..]).unwrap();
    }
    ARMED.with(|armed| armed.set(false));

    assert_eq!(
        BYTES.load(Ordering::Relaxed),
        0,
        "a warm per-bit write allocated"
    );
    assert!(dev.stats().bits_flipped > 0);
    let flips: u64 = dev
        .wear()
        .per_bit_flips()
        .unwrap()
        .iter()
        .map(|&v| u64::from(v))
        .sum();
    assert!(flips > 0);
}
