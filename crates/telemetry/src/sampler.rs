//! [`Sampler`]: which requests read the clock.
//!
//! Every count stays exact; only latencies are sampled. A site that
//! times requests holds a `Sampler` of its own and asks it at the start
//! of each request. The first call, and every [`Sampler::EVERY`]th
//! after it, returns `Some(Instant::now())`; every other call returns
//! `None` and reads no clock. [`crate::Histogram::observe_since`] then
//! observes the sampled requests only, so a latency histogram's
//! `_count` counts samples, not operations — the site's exact counter
//! counts those.
//!
//! A sampler is a plain countdown behind `&mut self`: no atomic, no
//! thread-local, no allocation. So it belongs to one holder (a worker's
//! execution context, a store handle, an engine), and two sites never
//! share one. One countdown ticked by two sites in turn would split its
//! samples by parity: 64 is even, and a caller that alternates two
//! calls would have every sample land on the same one of them. An
//! engine's one sampler therefore ticks once per public operation and
//! times the stages inside it, never once per call site.

use std::time::Instant;

/// A countdown that times one request in [`Sampler::EVERY`].
#[derive(Clone, Debug, Default)]
pub struct Sampler {
    /// Calls left before the next sampled one.
    countdown: u32,
}

impl Sampler {
    /// One request in this many is timed.
    pub const EVERY: u32 = 64;

    /// The start of a request: `Some(now)` on the first call and on
    /// every [`Sampler::EVERY`]th after it, `None` otherwise.
    #[inline]
    #[must_use]
    pub fn start(&mut self) -> Option<Instant> {
        if self.countdown == 0 {
            self.countdown = Self::EVERY - 1;
            Some(Instant::now())
        } else {
            self.countdown -= 1;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 1-based calls on which `sampler` fired, out of `calls`.
    fn fired(sampler: &mut Sampler, calls: u32) -> Vec<u32> {
        (1..=calls).filter(|_| sampler.start().is_some()).collect()
    }

    #[test]
    fn fires_on_the_first_call_and_every_64th_after_it() {
        let mut s = Sampler::default();
        assert_eq!(fired(&mut s, 200), [1, 65, 129, 193]);
    }

    #[test]
    fn samplers_are_independent() {
        let mut a = Sampler::default();
        assert_eq!(fired(&mut a, 10), [1]);
        // A second sampler starts at its own first call, whatever the
        // first has counted, and ticking it leaves the first's count
        // alone: a's 65th call is the 55th of the next run.
        let mut b = Sampler::default();
        assert_eq!(fired(&mut b, 100), [1, 65]);
        assert_eq!(fired(&mut a, 60), [55]);
    }
}
