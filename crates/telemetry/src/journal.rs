//! Bounded structured event journal.
//!
//! Events are rare control-plane occurrences (retrains, fallback
//! placements, wear-leveling swaps) — a few per second at most — so the
//! journal trades the metrics module's lock-freedom for structure: a
//! mutex-guarded ring buffer with monotonic sequence numbers and
//! wall-clock timestamps. When the ring is full the oldest entry is
//! dropped and counted, so the journal is safe to leave attached
//! forever.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// A structured control-plane event emitted by the serving stack.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A background retrain was submitted for `shard`.
    RetrainStarted {
        /// Shard whose retrain was submitted.
        shard: usize,
    },
    /// A retrained model was installed on `shard`. `loss` is the final
    /// training loss of the new model when available.
    RetrainFinished {
        /// Shard the model was installed on.
        shard: usize,
        /// Final training loss of the new model, when available.
        loss: Option<f64>,
        /// Wall-clock training duration in milliseconds.
        duration_ms: u64,
    },
    /// A placement found the predicted cluster's free list empty and
    /// fell back to another cluster's free list.
    FallbackPlacement {
        /// Shard the placement ran on.
        shard: usize,
        /// Cluster the model predicted.
        predicted: usize,
        /// Cluster that actually supplied the address.
        used: usize,
    },
    /// The wear leveler swapped two physical segments.
    WearLevelSwap {
        /// First physical segment of the swap.
        a: usize,
        /// Second physical segment of the swap.
        b: usize,
    },
    /// A physical segment crossed its endurance limit: its content is
    /// frozen and all further writes to it fail (recorded by the
    /// memory controller when the device reports wear-out).
    SegmentWornOut {
        /// The worn-out physical segment.
        segment: usize,
    },
    /// The placement engine permanently retired a worn-out segment
    /// from its address pool (graceful degradation: capacity shrinks
    /// instead of crashing).
    SegmentRetired {
        /// Shard whose pool shrank.
        shard: usize,
        /// The retired segment (shard-local logical id).
        segment: usize,
        /// The physical slot that actually wore out and was
        /// quarantined — under active wear leveling this differs from
        /// the logical id, and it is the id wear heatmaps and the
        /// HEALTH summary are keyed by.
        physical: usize,
    },
    /// The network serving layer bound its listener and began
    /// accepting connections.
    ServerStarted {
        /// The TCP port the listener bound (useful with ephemeral
        /// binds).
        port: usize,
    },
    /// The network serving layer finished a graceful shutdown: the
    /// listener closed and every connection thread drained and joined.
    ServerStopped {
        /// Connections served over the server's lifetime.
        connections_served: usize,
    },
}

impl Event {
    /// Stable kind tag, used as the `kind` field in JSON output.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RetrainStarted { .. } => "retrain_started",
            Event::RetrainFinished { .. } => "retrain_finished",
            Event::FallbackPlacement { .. } => "fallback_placement",
            Event::WearLevelSwap { .. } => "wear_level_swap",
            Event::SegmentWornOut { .. } => "segment_worn_out",
            Event::SegmentRetired { .. } => "segment_retired",
            Event::ServerStarted { .. } => "server_started",
            Event::ServerStopped { .. } => "server_stopped",
        }
    }
}

/// An [`Event`] plus the journal's bookkeeping: a monotonic
/// sequence number and the unix timestamp (milliseconds) at which
/// it was recorded.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    /// Monotonic sequence number within the journal.
    pub seq: u64,
    /// Unix timestamp in milliseconds at record time.
    pub unix_ms: u64,
    /// The recorded event.
    pub event: Event,
}

/// Bounded ring of [`TimedEvent`]s; drop-oldest when full.
#[derive(Debug)]
pub struct EventJournal {
    ring: Mutex<VecDeque<TimedEvent>>,
    capacity: usize,
    next_seq: AtomicU64,
    dropped: AtomicU64,
}

impl EventJournal {
    /// A journal holding at most `capacity` events. Capacity 0 is a
    /// legal "disconnected" journal that records nothing.
    pub fn with_capacity(capacity: usize) -> Self {
        EventJournal {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            next_seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append `event`, evicting the oldest entry when full.
    pub fn record(&self, event: Event) {
        if self.capacity == 0 {
            return;
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(TimedEvent {
            seq,
            unix_ms,
            event,
        });
    }

    /// All currently retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TimedEvent> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Total events ever recorded (including since-dropped ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Events evicted to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl TimedEvent {
    /// Render this event as a single JSON object.
    pub(crate) fn to_json(&self) -> String {
        let mut fields = format!(
            "\"seq\":{},\"unix_ms\":{},\"kind\":\"{}\"",
            self.seq,
            self.unix_ms,
            self.event.kind()
        );
        match &self.event {
            Event::RetrainStarted { shard } => {
                fields.push_str(&format!(",\"shard\":{shard}"));
            }
            Event::RetrainFinished {
                shard,
                loss,
                duration_ms,
            } => {
                fields.push_str(&format!(",\"shard\":{shard}"));
                match loss {
                    Some(l) if l.is_finite() => fields.push_str(&format!(",\"loss\":{l}")),
                    _ => fields.push_str(",\"loss\":null"),
                }
                fields.push_str(&format!(",\"duration_ms\":{duration_ms}"));
            }
            Event::FallbackPlacement {
                shard,
                predicted,
                used,
            } => {
                fields.push_str(&format!(
                    ",\"shard\":{shard},\"predicted\":{predicted},\"used\":{used}"
                ));
            }
            Event::WearLevelSwap { a, b } => {
                fields.push_str(&format!(",\"a\":{a},\"b\":{b}"));
            }
            Event::SegmentWornOut { segment } => {
                fields.push_str(&format!(",\"segment\":{segment}"));
            }
            Event::SegmentRetired {
                shard,
                segment,
                physical,
            } => {
                fields.push_str(&format!(
                    ",\"shard\":{shard},\"segment\":{segment},\"physical\":{physical}"
                ));
            }
            Event::ServerStarted { port } => {
                fields.push_str(&format!(",\"port\":{port}"));
            }
            Event::ServerStopped { connections_served } => {
                fields.push_str(&format!(",\"connections_served\":{connections_served}"));
            }
        }
        format!("{{{fields}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_seq() {
        let j = EventJournal::with_capacity(8);
        j.record(Event::RetrainStarted { shard: 0 });
        j.record(Event::WearLevelSwap { a: 1, b: 2 });
        let snap = j.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].seq, 0);
        assert_eq!(snap[1].seq, 1);
        assert_eq!(snap[1].event, Event::WearLevelSwap { a: 1, b: 2 });
    }

    #[test]
    fn drops_oldest_when_full() {
        let j = EventJournal::with_capacity(2);
        for shard in 0..5 {
            j.record(Event::RetrainStarted { shard });
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].event, Event::RetrainStarted { shard: 3 });
        assert_eq!(snap[1].event, Event::RetrainStarted { shard: 4 });
        assert_eq!(j.recorded(), 5);
        assert_eq!(j.dropped(), 3);
    }

    #[test]
    fn zero_capacity_is_disconnected() {
        let j = EventJournal::with_capacity(0);
        j.record(Event::RetrainStarted { shard: 0 });
        assert!(j.snapshot().is_empty());
        assert_eq!(j.recorded(), 0);
    }

    #[test]
    fn event_json_shapes() {
        let j = EventJournal::with_capacity(4);
        j.record(Event::RetrainFinished {
            shard: 3,
            loss: Some(0.5),
            duration_ms: 12,
        });
        j.record(Event::FallbackPlacement {
            shard: 0,
            predicted: 1,
            used: 2,
        });
        let snap = j.snapshot();
        let a = snap[0].to_json();
        assert!(a.contains("\"kind\":\"retrain_finished\""), "{a}");
        assert!(a.contains("\"loss\":0.5"), "{a}");
        assert!(a.contains("\"duration_ms\":12"), "{a}");
        let b = snap[1].to_json();
        assert!(b.contains("\"predicted\":1"), "{b}");
        assert!(b.contains("\"used\":2"), "{b}");
    }

    #[test]
    fn server_event_json_shapes() {
        let j = EventJournal::with_capacity(4);
        j.record(Event::ServerStarted { port: 4242 });
        j.record(Event::ServerStopped {
            connections_served: 12,
        });
        let snap = j.snapshot();
        let a = snap[0].to_json();
        assert!(a.contains("\"kind\":\"server_started\""), "{a}");
        assert!(a.contains("\"port\":4242"), "{a}");
        let b = snap[1].to_json();
        assert!(b.contains("\"kind\":\"server_stopped\""), "{b}");
        assert!(b.contains("\"connections_served\":12"), "{b}");
    }

    #[test]
    fn fault_event_json_shapes() {
        let j = EventJournal::with_capacity(4);
        j.record(Event::SegmentWornOut { segment: 17 });
        j.record(Event::SegmentRetired {
            shard: 2,
            segment: 17,
            physical: 19,
        });
        let snap = j.snapshot();
        let a = snap[0].to_json();
        assert!(a.contains("\"kind\":\"segment_worn_out\""), "{a}");
        assert!(a.contains("\"segment\":17"), "{a}");
        let b = snap[1].to_json();
        assert!(b.contains("\"kind\":\"segment_retired\""), "{b}");
        assert!(b.contains("\"shard\":2"), "{b}");
        assert!(b.contains("\"segment\":17"), "{b}");
    }
}
