//! The reactor's fixed worker pool.
//!
//! Workers pull batches of fully decoded [`Work`] items (one batch =
//! one connection's queued items, in arrival order) off a shared
//! injector queue, execute them against the store through the shared
//! [`crate::dispatch`] layer, and push the encoded response bytes back
//! as a [`Completion`] — then wake the reactor so it can flush.
//!
//! Ordering discipline: the reactor dispatches **at most one batch per
//! connection at a time**, so a connection's responses are produced in
//! request order without any cross-worker coordination; parallelism
//! comes from different connections' batches running on different
//! workers. The store clones inside each worker share the shards (and
//! the cache), so coherence is cross-connection and cross-worker.

use crate::dispatch::{ExecCtx, Work};
use crate::sys::Waker;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One connection's queued items, headed for a worker.
pub(crate) struct Job {
    /// Connection slot index in the reactor.
    pub token: u32,
    /// Slot generation — a completion whose generation no longer
    /// matches the slot is for a connection that died mid-flight and
    /// is dropped.
    pub gen: u32,
    /// The items, in arrival order.
    pub items: Vec<Work>,
}

/// The encoded result of one executed [`Job`].
pub(crate) struct Completion {
    /// Connection slot index the bytes belong to.
    pub token: u32,
    /// Generation stamp copied from the job.
    pub gen: u32,
    /// Response frames, one per answered item, in request order.
    pub bytes: Vec<u8>,
    /// Close the connection once `bytes` is flushed (fatal violation
    /// answered, or SHUTDOWN acknowledged).
    pub close: bool,
    /// A SHUTDOWN frame was served: the whole server must drain.
    pub shutdown: bool,
}

struct Shared {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    stop: AtomicBool,
    completions: Mutex<VecDeque<Completion>>,
    waker: Waker,
}

/// A fixed pool of worker threads plus the two queues that connect
/// them to the reactor.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `count` workers, each owning an [`ExecCtx`] built by
    /// `make_ctx` (a [`crate::dispatch::Front`] clone per worker —
    /// shards shared). `waker` is poked after every completion so the
    /// reactor flushes without waiting out its liveness tick.
    pub fn spawn(
        count: usize,
        waker: Waker,
        make_ctx: impl Fn() -> ExecCtx,
    ) -> std::io::Result<Self> {
        let shared = Arc::new(Shared {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            completions: Mutex::new(VecDeque::new()),
            waker,
        });
        let mut threads = Vec::with_capacity(count);
        for i in 0..count {
            let shared = Arc::clone(&shared);
            let ctx = make_ctx();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("e2nvm-worker-{i}"))
                    .spawn(move || worker_loop(shared, ctx))?,
            );
        }
        Ok(Self { shared, threads })
    }

    /// Hand a job to the pool (reactor side).
    pub fn submit(&self, job: Job) {
        let mut jobs = self.shared.jobs.lock().unwrap();
        jobs.push_back(job);
        drop(jobs);
        self.shared.available.notify_one();
    }

    /// Drain every completed job into `out` (reactor side).
    pub fn drain_completions(&self, out: &mut Vec<Completion>) {
        let mut completions = self.shared.completions.lock().unwrap();
        out.extend(completions.drain(..));
    }

    /// Stop accepting work and join every worker. Queued-but-unstarted
    /// jobs are dropped — the reactor only calls this after its drain
    /// walk confirmed nothing is in flight.
    pub fn stop(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, mut ctx: ExecCtx) {
    loop {
        let job = {
            let mut jobs = shared.jobs.lock().unwrap();
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                match jobs.pop_front() {
                    Some(job) => break job,
                    None => jobs = shared.available.wait(jobs).unwrap(),
                }
            }
        };
        let t0 = Instant::now();
        let mut bytes = Vec::with_capacity(job.items.len() * 16);
        let outcome = ctx.exec_batch(job.items, &mut bytes);
        ctx.telemetry.worker_batches.inc();
        ctx.telemetry
            .worker_busy_ns
            .add(t0.elapsed().as_nanos() as u64);
        let mut completions = shared.completions.lock().unwrap();
        completions.push_back(Completion {
            token: job.token,
            gen: job.gen,
            bytes,
            close: outcome.close,
            shutdown: outcome.shutdown,
        });
        drop(completions);
        shared.waker.wake();
    }
}
