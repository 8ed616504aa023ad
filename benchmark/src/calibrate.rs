//! Two fixed reference loads run around every timed repetition and
//! every set-up, so that a co-tenant slowing the whole sandbox does not
//! read as a regression (ROADMAP item 1's "interleaved twin").
//!
//! Neither shares code with the system under test — no change to the
//! repository can speed them up — and each is a miniature of what it
//! calibrates, so that a host-time measurement taken while its
//! reference ran at speed `s` (reference time ÷ measured time) is
//! reported, in plain proportion, as it would have read at `s = 1`:
//!
//! * [`PingPong`] — serving: two threads exchanging batch-sized
//!   messages over a loopback TCP connection, one `write`, one `read`
//!   and one pass over the bytes per hop. Scales everything measured
//!   while requests are served.
//! * [`Kernel`] — training: a dense `f32` layer over bit features, an
//!   ordered index, a copy into a multi-megabyte "device". Scales
//!   set-up, which training dominates.
//!
//! One reference for both does not work on this sandbox: when a
//! neighbour slows it down, system calls and context switches slow by
//! about half again as much as a tight floating-point loop does (the
//! ping-pong takes x1.5 where the kernel takes x1.25), and serving
//! follows the former, training the latter.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// The kernel's duration on the reference sandbox in its quiet state,
/// ns. A scale constant: changing it rescales `setup_s`.
pub const KERNEL_REFERENCE_NS: f64 = 13_500_000.0;

/// The ping-pong's duration on the reference sandbox in its quiet
/// state, ns. A scale constant: changing it rescales every host-time
/// serving metric.
pub const PINGPONG_REFERENCE_NS: f64 = 2_600_000.0;

const VALUE_BYTES: usize = 128;
const FEATURES: usize = VALUE_BYTES * 8;
const HIDDEN: usize = 64;
const SEGMENTS: usize = 16_384;
const KEYS: u64 = 4_096;
const PUTS_PER_RUN: usize = 1_000;

/// Bytes per ping-pong message: a pipeline batch of PUT frames.
const MESSAGE_BYTES: usize = 1_800;
/// Round trips per ping-pong run.
const ROUND_TRIPS: usize = 400;

/// The compute kernel's working set, built once per process.
struct Kernel {
    weights: Vec<f32>,
    device: Vec<u8>,
    index: BTreeMap<u64, u32>,
    state: u64,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Kernel {
    /// Allocate and initialise the working set (deterministically).
    fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let weights = (0..FEATURES * HIDDEN)
            .map(|_| (xorshift(&mut state) % 2_000) as f32 / 1_000.0 - 1.0)
            .collect();
        let device = (0..SEGMENTS * VALUE_BYTES)
            .map(|_| xorshift(&mut state) as u8)
            .collect();
        let index = (0..KEYS)
            .map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k as u32))
            .collect();
        Self {
            weights,
            device,
            index,
            state,
        }
    }

    fn forward(&self, value: &[u8]) -> f32 {
        let mut hidden = [0.0f32; HIDDEN];
        for (byte_at, &byte) in value.iter().enumerate() {
            for bit in 0..8 {
                let x = f32::from((byte >> (7 - bit)) & 1);
                let row = &self.weights[(byte_at * 8 + bit) * HIDDEN..][..HIDDEN];
                for (h, w) in hidden.iter_mut().zip(row) {
                    *h += x * w;
                }
            }
        }
        hidden.iter().map(|h| h.max(0.0)).sum()
    }

    /// Run the kernel once; returns its wall duration in ns.
    fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0.0f32;
        let mut flips = 0u32;
        let mut value = [0u8; VALUE_BYTES];
        for _ in 0..PUTS_PER_RUN {
            let r = xorshift(&mut self.state);
            for (i, b) in value.iter_mut().enumerate() {
                *b = (r >> (i % 8 * 8)) as u8 & 0x3C;
            }
            acc += self.forward(&value);
            let key = (r % KEYS).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let seg = (r >> 20) as usize % SEGMENTS;
            let old = self.index.insert(key, seg as u32).unwrap_or(0) as usize;
            let old_content: [u8; VALUE_BYTES] = self.device[old * VALUE_BYTES..][..VALUE_BYTES]
                .try_into()
                .expect("segment-sized slice");
            acc += self.forward(&old_content);
            let target = &mut self.device[seg * VALUE_BYTES..][..VALUE_BYTES];
            let mut sum = 0xCBF2_9CE4_8422_2325u64;
            for (t, v) in target.iter_mut().zip(&value) {
                flips += (*t ^ *v).count_ones();
                *t = *v;
                sum = (sum ^ u64::from(*v)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            flips ^= sum as u32;
        }
        std::hint::black_box((acc, flips));
        start.elapsed().as_nanos() as f64
    }
}

/// The serving reference: this thread and an echo thread of the
/// benchmark's own, joined by one loopback TCP connection.
struct PingPong {
    stream: TcpStream,
    echo: Option<JoinHandle<()>>,
    message: Vec<u8>,
}

fn checksum(bytes: &[u8]) -> u8 {
    bytes.iter().fold(0u8, |sum, b| sum.wrapping_add(*b))
}

impl PingPong {
    /// Connect to a listener of our own and start the echo thread on
    /// its end of the connection.
    fn new() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        // The handshake completes into the listener's backlog, so the
        // thread is spawned only once nothing can fail any more and
        // its `accept` returns at once.
        let stream = TcpStream::connect(listener.local_addr()?)?;
        stream.set_nodelay(true)?;
        let echo = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else {
                return;
            };
            let _ = peer.set_nodelay(true);
            let mut message = vec![0u8; MESSAGE_BYTES];
            // Ends when `PingPong::drop` shuts the connection down.
            while peer.read_exact(&mut message).is_ok() {
                message[0] = checksum(&message);
                if peer.write_all(&message).is_err() {
                    break;
                }
            }
        });
        Ok(Self {
            stream,
            echo: Some(echo),
            message: vec![1u8; MESSAGE_BYTES],
        })
    }

    /// Run the ping-pong once; returns its wall duration in ns.
    fn run(&mut self) -> std::io::Result<f64> {
        let start = Instant::now();
        for _ in 0..ROUND_TRIPS {
            self.stream.write_all(&self.message)?;
            self.stream.read_exact(&mut self.message)?;
            self.message[1] = checksum(&self.message);
        }
        Ok(start.elapsed().as_nanos() as f64)
    }
}

impl Drop for PingPong {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// Both reference loads. A speed is that of the host right now relative
/// to the reference sandbox in its quiet state (1.0 = reference, 0.5 =
/// the load takes twice as long): the faster of two runs, because a
/// load this short is only ever slowed by a stray preemption, never
/// sped up.
pub struct Calibration {
    kernel: Kernel,
    pingpong: PingPong,
}

impl Calibration {
    /// Build the kernel's working set and start the ping-pong.
    pub fn new() -> std::io::Result<Self> {
        Ok(Self {
            kernel: Kernel::new(),
            pingpong: PingPong::new()?,
        })
    }

    /// By the ping-pong (some 5 ms): what serving times are scaled with.
    pub fn serving_speed(&mut self) -> std::io::Result<f64> {
        let ns = self.pingpong.run()?.min(self.pingpong.run()?);
        Ok(PINGPONG_REFERENCE_NS / ns)
    }

    /// By the compute kernel (some 27 ms): what set-up times are
    /// scaled with.
    pub fn training_speed(&mut self) -> f64 {
        let ns = self.kernel.run().min(self.kernel.run());
        KERNEL_REFERENCE_NS / ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_reference_loads_run_and_the_echo_thread_ends() {
        let mut calibration = Calibration::new().expect("loopback is available");
        let serving = calibration.serving_speed().expect("ping-pong runs");
        let training = calibration.training_speed();
        assert!(serving > 0.01 && serving < 100.0, "{serving}");
        assert!(training > 0.01 && training < 100.0, "{training}");
        drop(calibration); // joins the echo thread; hangs if it never ends
    }
}
