//! Process CPU time, peak resident memory and CPU affinity, through
//! direct libc calls (no crate provides them offline, and the serving
//! stack already requires Linux for its epoll reactor).

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// of which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of the affinity masks passed to the kernel: 1 024 CPUs.
const CPU_SET_WORDS: usize = 16;

/// Confine the calling thread, and every thread spawned from it
/// afterwards, to one CPU: the highest-numbered one it may run on.
/// Returns that CPU.
pub fn pin_to_one_cpu() -> usize {
    let mut allowed = [0u64; CPU_SET_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    let (word, bits) = allowed
        .iter()
        .enumerate()
        .rev()
        .find(|(_, bits)| **bits != 0)
        .expect("a running thread is allowed on some CPU");
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; CPU_SET_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of the size passed, naming a CPU
    // the thread is already allowed on.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
    word * 64 + bit
}

/// CPU nanoseconds consumed so far by every thread of this process —
/// client driver and in-process server alike.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this package builds for), and
    // the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable buffer laid out as 64-bit
    // Linux's `struct rusage` (144 bytes), which the kernel fills.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru.ru_maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let t1 = process_cpu_ns();
        // 20 M dependent multiply-adds are milliseconds of CPU, and far
        // less than a minute even with sibling test threads charged to
        // the same process clock.
        assert!(t1 - t0 > 1_000_000, "charged {} ns", t1 - t0);
        assert!(t1 - t0 < 60_000_000_000, "charged {} ns", t1 - t0);
        assert!(process_cpu_ns() >= t1, "CPU clock went backwards");
    }

    #[test]
    fn pinning_leaves_one_cpu_and_spawned_threads_inherit_it() {
        // Affinity is per thread, so this confines only the test's own
        // thread and its child.
        let cpu = pin_to_one_cpu();
        assert_eq!(
            std::thread::available_parallelism().map(|n| n.get()).ok(),
            Some(1)
        );
        let child = std::thread::spawn(pin_to_one_cpu)
            .join()
            .expect("child ran");
        assert_eq!(child, cpu);
    }

    #[test]
    fn peak_rss_is_plausible() {
        let mib = peak_rss_mib();
        assert!(mib > 0.5 && mib < 1_048_576.0, "peak RSS {mib} MiB");
    }
}
