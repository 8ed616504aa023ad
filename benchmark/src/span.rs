//! In-memory spans recorded around calls into each layer, and the
//! self-time arithmetic over them.
//!
//! Every depth of the traced pass replays the same ops, so a span's
//! parent is the span of the *same op* one depth up — linked by op
//! index, not by nesting in time.

use std::collections::BTreeMap;
use std::time::Instant;

/// Parent id of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the recorder.
    pub id: u32,
    /// Id of the same op's span one depth up, or [`NO_PARENT`].
    pub parent: u32,
    /// Index into [`Recorder::names`].
    pub name: u16,
    /// Index of the op in the replayed trace.
    pub op: u32,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

/// Collects spans in memory; nothing is written until the pass ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Span names, indexed by [`Span::name`].
    pub names: Vec<&'static str>,
    /// Every span, in recording order.
    pub spans: Vec<Span>,
    /// Per name: op index → id of that op's latest span of the name.
    by_name: Vec<Vec<u32>>,
    ops: usize,
}

impl Recorder {
    /// A recorder for replays of `ops` ops.
    pub fn new(ops: usize) -> Self {
        Self {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            by_name: Vec::new(),
            ops,
        }
    }

    /// The instant span times are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Ops each replay covers.
    pub fn ops(&self) -> usize {
        self.ops
    }

    fn name_index(&mut self, name: &'static str) -> usize {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.by_name.push(vec![NO_PARENT; self.ops]);
                self.names.len() - 1
            }
        }
    }

    /// Record a span `name` for `op`, whose parent is that op's span
    /// named `parent` (if one was recorded).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        op: usize,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        self.record_ns(name, parent, op, start_ns, end_ns);
    }

    /// [`Recorder::record`] with times already relative to the epoch.
    pub fn record_ns(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        op: usize,
        start_ns: u64,
        end_ns: u64,
    ) {
        let parent = parent
            .and_then(|p| self.names.iter().position(|n| *n == p))
            .map_or(NO_PARENT, |p| self.by_name[p][op]);
        let name = self.name_index(name);
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.by_name[name][op] = id;
        self.spans.push(Span {
            id,
            parent,
            name: name as u16,
            op: op as u32,
            start_ns,
            end_ns,
        });
    }

    /// Per name: `(span count, summed duration in ns)`, each duration
    /// reduced by `overhead_ns` (the timer's own cost, see
    /// [`timer_overhead_ns`]) and floored at zero.
    pub fn totals(&self, overhead_ns: f64) -> BTreeMap<&'static str, (u64, f64)> {
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for span in &self.spans {
            let dur = ((span.end_ns - span.start_ns) as f64 - overhead_ns).max(0.0);
            let slot = out.entry(self.names[span.name as usize]).or_default();
            slot.0 += 1;
            slot.1 += dur;
        }
        out
    }
}

/// Mean nanoseconds per replayed op spent under `name` (ops without a
/// span of that name count as zero).
pub fn per_op_ns(totals: &BTreeMap<&'static str, (u64, f64)>, name: &str, ops: usize) -> f64 {
    totals.get(name).map_or(0.0, |&(_, ns)| ns / ops as f64)
}

/// A layer's self time per op: its own spans minus its children's.
pub fn self_ns(
    totals: &BTreeMap<&'static str, (u64, f64)>,
    layer: &str,
    children: &[&str],
    ops: usize,
) -> f64 {
    per_op_ns(totals, layer, ops)
        - children
            .iter()
            .map(|c| per_op_ns(totals, c, ops))
            .sum::<f64>()
}

/// What one empty span measures: the cost of reading the clock twice,
/// which every recorded duration includes once.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let mut total = 0u128;
    for _ in 0..N {
        let a = Instant::now();
        let b = Instant::now();
        total += b.duration_since(a).as_nanos();
    }
    total as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parents_link_the_same_op_one_depth_up() {
        let mut rec = Recorder::new(2);
        rec.record_ns("store", None, 0, 0, 100);
        rec.record_ns("store", None, 1, 100, 300);
        rec.record_ns("engine", Some("store"), 1, 1_000, 1_150);
        rec.record_ns("engine", Some("store"), 0, 1_150, 1_200);
        rec.record_ns("orphan", Some("absent"), 0, 0, 1);
        let store_ids: Vec<u32> = rec.spans[..2].iter().map(|s| s.id).collect();
        assert_eq!(rec.spans[2].parent, store_ids[1]);
        assert_eq!(rec.spans[3].parent, store_ids[0]);
        assert_eq!(rec.spans[0].parent, NO_PARENT);
        assert_eq!(rec.spans[4].parent, NO_PARENT);
        assert_eq!(rec.names, ["store", "engine", "orphan"]);
    }

    #[test]
    fn self_time_is_own_spans_minus_childrens() {
        let mut rec = Recorder::new(4);
        // store: 4 ops of 1000 ns; engine under it on 2 ops, 600 ns
        // each; wal under it on 1 op, 100 ns.
        for op in 0..4 {
            rec.record_ns("store", None, op, 0, 1_000);
        }
        rec.record_ns("engine", Some("store"), 0, 0, 600);
        rec.record_ns("engine", Some("store"), 2, 0, 600);
        rec.record_ns("wal", Some("store"), 2, 0, 100);
        let totals = rec.totals(0.0);
        assert_eq!(totals["store"], (4, 4_000.0));
        assert_eq!(per_op_ns(&totals, "engine", 4), 300.0);
        assert_eq!(per_op_ns(&totals, "absent", 4), 0.0);
        assert_eq!(self_ns(&totals, "store", &["engine", "wal"], 4), 675.0);
        // Timer overhead comes off every span, floored at zero.
        let totals = rec.totals(150.0);
        assert_eq!(totals["store"], (4, 3_400.0));
        assert_eq!(totals["wal"], (1, 0.0));
        assert_eq!(self_ns(&totals, "store", &["engine", "wal"], 4), 625.0);
    }

    #[test]
    fn timer_overhead_is_small_and_positive() {
        let ns = timer_overhead_ns();
        assert!(ns > 0.0 && ns < 10_000.0, "timer overhead {ns} ns");
    }
}
