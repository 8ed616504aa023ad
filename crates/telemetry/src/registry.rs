//! The [`TelemetryRegistry`]: owns every registered metric, the
//! read-through sources and the event journal, and renders them as
//! Prometheus text exposition or a JSON snapshot.
//!
//! Registration takes a short mutex; the returned handles are
//! lock-free. Registering the same `(name, labels)` pair twice returns
//! the *same* underlying handle, so independent components can share a
//! series without coordination. A source's samples join the handles'
//! series at render time: equal `(name, labels)` are summed.

use crate::journal::EventJournal;
use crate::json_escape;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::source::{Sample, Samples, Source, Value};
use parking_lot::Mutex;
use std::sync::Arc;

const DEFAULT_JOURNAL_CAPACITY: usize = 256;

pub(crate) type Labels = Vec<(String, String)>;

struct Series<H> {
    name: String,
    help: String,
    labels: Labels,
    handle: H,
}

struct Inner {
    counters: Mutex<Vec<Series<Counter>>>,
    gauges: Mutex<Vec<Series<Gauge>>>,
    histograms: Mutex<Vec<Series<Histogram>>>,
    sources: Mutex<Vec<Source>>,
    journal: EventJournal,
}

/// Shared handle to a set of metrics plus an event journal.
/// Cloning is cheap and clones observe the same underlying state.
#[derive(Clone)]
pub struct TelemetryRegistry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for TelemetryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryRegistry")
            .field("counters", &self.inner.counters.lock().len())
            .field("gauges", &self.inner.gauges.lock().len())
            .field("histograms", &self.inner.histograms.lock().len())
            .field("sources", &self.inner.sources.lock().len())
            .finish()
    }
}

impl Default for TelemetryRegistry {
    fn default() -> Self {
        Self::new()
    }
}

pub(crate) fn canonical(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

fn get_or_insert<H: Clone>(
    series: &Mutex<Vec<Series<H>>>,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    make: impl FnOnce() -> H,
) -> H {
    let labels = canonical(labels);
    let mut series = series.lock();
    if let Some(s) = series.iter().find(|s| s.name == name && s.labels == labels) {
        return s.handle.clone();
    }
    let handle = make();
    series.push(Series {
        name: name.to_string(),
        help: help.to_string(),
        labels,
        handle: handle.clone(),
    });
    handle
}

/// `series` regrouped so each family's label sets are contiguous:
/// families in first-appearance order, label sets in appearance order
/// within a family. The text exposition format requires all lines of
/// a family in one group under its single HELP/TYPE header, and
/// per-shard attachment registers families interleaved.
fn by_family<S>(series: &[S], name: impl Fn(&S) -> &str) -> Vec<&S> {
    let mut grouped: Vec<&S> = series.iter().collect();
    // Stable sort: ties (same family) keep registration order.
    grouped.sort_by_cached_key(|s| series.iter().position(|t| name(t) == name(s)));
    grouped
}

fn render_labels(labels: &Labels, extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", json_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn labels_json(labels: &Labels) -> String {
    let fields: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn sample_json(s: &Sample) -> String {
    format!(
        "{{\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
        json_escape(&s.name),
        labels_json(&s.labels),
        s.value
    )
}

impl TelemetryRegistry {
    /// A registry with the default journal capacity.
    pub fn new() -> Self {
        Self::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A registry whose journal retains at most `capacity` events.
    pub fn with_journal_capacity(capacity: usize) -> Self {
        TelemetryRegistry {
            inner: Arc::new(Inner {
                counters: Mutex::new(Vec::new()),
                gauges: Mutex::new(Vec::new()),
                histograms: Mutex::new(Vec::new()),
                sources: Mutex::new(Vec::new()),
                journal: EventJournal::with_capacity(capacity),
            }),
        }
    }

    /// Register (or fetch) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with_labels(name, help, &[])
    }

    /// Register (or fetch) a counter distinguished by `labels`.
    pub fn counter_with_labels(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        get_or_insert(&self.inner.counters, name, help, labels, Counter::default)
    }

    /// Register (or fetch) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with_labels(name, help, &[])
    }

    /// Register (or fetch) a gauge distinguished by `labels`.
    pub fn gauge_with_labels(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        get_or_insert(&self.inner.gauges, name, help, labels, Gauge::default)
    }

    /// Register (or fetch) an unlabeled histogram with `bounds`.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Histogram {
        self.histogram_with_labels(name, help, bounds, &[])
    }

    /// Register (or fetch) a histogram distinguished by `labels`.
    pub fn histogram_with_labels(
        &self,
        name: &str,
        help: &str,
        bounds: &[u64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        get_or_insert(&self.inner.histograms, name, help, labels, || {
            Histogram::disconnected(bounds)
        })
    }

    /// Register a read-through source: on every render, snapshot and
    /// [`TelemetryRegistry::counter_total`], `emit` reads `owner` and
    /// pushes its counter and gauge samples. The registry holds `owner`
    /// weakly — once it is dropped its samples are gone — and keeps one
    /// source per owner, so attaching a component twice does not
    /// double its series. `emit` runs with no registry lock held; a
    /// source emits every family it owns on every call, zeros
    /// included.
    pub fn source<T, F>(&self, owner: &Arc<T>, emit: F)
    where
        T: ?Sized + Send + Sync + 'static,
        F: Fn(&T, &mut Samples) + Send + Sync + 'static,
    {
        let source = Source::new(owner, emit);
        let mut sources = self.inner.sources.lock();
        if sources.iter().all(|s| s.owner != source.owner) {
            sources.push(source);
        }
    }

    /// Every counter and gauge: the handles, read once, then every
    /// live source's samples, equal `(name, labels)` summed. A source
    /// whose owner is gone is forgotten (its weak reference kept the
    /// owner's address from being reused until now).
    fn scalars(&self) -> Vec<Sample> {
        let mut out = Samples::default();
        for s in self.inner.counters.lock().iter() {
            out.push(&s.name, &s.help, &s.labels, Value::Count(s.handle.get()));
        }
        for s in self.inner.gauges.lock().iter() {
            out.push(&s.name, &s.help, &s.labels, Value::Level(s.handle.get()));
        }
        let sources: Vec<Source> = self.inner.sources.lock().clone();
        let dead: Vec<usize> = sources
            .iter()
            .filter(|s| !(s.emit)(&mut out))
            .map(|s| s.owner)
            .collect();
        if !dead.is_empty() {
            self.inner
                .sources
                .lock()
                .retain(|s| !dead.contains(&s.owner));
        }
        out.rows
    }

    /// Sum of an integer counter family across every label
    /// combination, handles and sources alike.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.scalars()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match s.value {
                Value::Count(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// The shared structured event journal.
    pub fn journal(&self) -> &EventJournal {
        &self.inner.journal
    }

    /// Render every registered metric in the Prometheus text
    /// exposition format (one `# HELP` / `# TYPE` header per family,
    /// followed by all of that family's label sets; cumulative
    /// `_bucket{le=...}` histogram series).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<String> = Vec::new();
        let mut header = |out: &mut String, name: &str, help: &str, kind: &str| {
            if !seen.iter().any(|s| s == name) {
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
                seen.push(name.to_string());
            }
        };

        let scalars = self.scalars();
        for counter in [true, false] {
            let rows: Vec<&Sample> = scalars
                .iter()
                .filter(|s| s.value.is_counter() == counter)
                .collect();
            let kind = if counter { "counter" } else { "gauge" };
            for s in by_family(&rows, |s| &s.name) {
                header(&mut out, &s.name, &s.help, kind);
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.name,
                    render_labels(&s.labels, None),
                    s.value
                ));
            }
        }
        for s in by_family(&self.inner.histograms.lock(), |s| &s.name) {
            header(&mut out, &s.name, &s.help, "histogram");
            let counts = s.handle.bucket_counts();
            let bounds = s.handle.bounds().to_vec();
            let mut cumulative = 0u64;
            for (i, c) in counts.iter().enumerate() {
                cumulative += c;
                let le = if i < bounds.len() {
                    bounds[i].to_string()
                } else {
                    "+Inf".to_string()
                };
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    s.name,
                    render_labels(&s.labels, Some(("le", &le))),
                    cumulative
                ));
            }
            out.push_str(&format!(
                "{}_sum{} {}\n",
                s.name,
                render_labels(&s.labels, None),
                s.handle.sum()
            ));
            out.push_str(&format!(
                "{}_count{} {}\n",
                s.name,
                render_labels(&s.labels, None),
                s.handle.count()
            ));
        }
        out
    }

    /// Render metrics plus the retained journal as one JSON
    /// document.
    pub fn snapshot_json(&self) -> String {
        let scalars = self.scalars();
        let json = |counter: bool| -> Vec<String> {
            scalars
                .iter()
                .filter(|s| s.value.is_counter() == counter)
                .map(sample_json)
                .collect()
        };
        let (counters, gauges) = (json(true), json(false));
        let histograms: Vec<String> = self
            .inner
            .histograms
            .lock()
            .iter()
            .map(|s| {
                let bounds: Vec<String> =
                    s.handle.bounds().iter().map(|b| b.to_string()).collect();
                let counts: Vec<String> = s
                    .handle
                    .bucket_counts()
                    .iter()
                    .map(|c| c.to_string())
                    .collect();
                format!(
                    "{{\"name\":\"{}\",\"labels\":{},\"count\":{},\"sum\":{},\"bounds\":[{}],\"buckets\":[{}]}}",
                    json_escape(&s.name),
                    labels_json(&s.labels),
                    s.handle.count(),
                    s.handle.sum(),
                    bounds.join(","),
                    counts.join(",")
                )
            })
            .collect();
        let events: Vec<String> = self
            .inner
            .journal
            .snapshot()
            .iter()
            .map(|e| e.to_json())
            .collect();
        format!(
            "{{\"enabled\":true,\"counters\":[{}],\"gauges\":[{}],\"histograms\":[{}],\
             \"events\":[{}],\"events_recorded\":{},\"events_dropped\":{}}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(","),
            events.join(","),
            self.inner.journal.recorded(),
            self.inner.journal.dropped()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Event;

    #[test]
    fn dedup_returns_shared_handle() {
        let r = TelemetryRegistry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.counter_total("x_total"), 2);
    }

    #[test]
    fn labels_distinguish_series_and_total_sums() {
        let r = TelemetryRegistry::new();
        let s0 = r.counter_with_labels("ops_total", "ops", &[("shard", "0")]);
        let s1 = r.counter_with_labels("ops_total", "ops", &[("shard", "1")]);
        s0.add(3);
        s1.add(4);
        assert_eq!(r.counter_total("ops_total"), 7);
        // Label order is canonicalised, so permutations dedup.
        let s0b = r.counter_with_labels("ops_total", "ops", &[("shard", "0")]);
        s0b.inc();
        assert_eq!(s0.get(), 4);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = TelemetryRegistry::new();
        r.counter("writes_total", "Writes").add(5);
        r.gauge_with_labels("depth", "Pool depth", &[("cluster", "1")])
            .set(-2);
        let h = r.histogram("lat_ns", "Latency", &[10, 100]);
        h.observe(7);
        h.observe(50);
        h.observe(5000);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP writes_total Writes"), "{text}");
        assert!(text.contains("# TYPE writes_total counter"), "{text}");
        assert!(text.contains("writes_total 5"), "{text}");
        assert!(text.contains("depth{cluster=\"1\"} -2"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"10\"} 1"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"100\"} 2"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("lat_ns_sum 5057"), "{text}");
        assert!(text.contains("lat_ns_count 3"), "{text}");
    }

    #[test]
    fn help_header_emitted_once_per_family() {
        let r = TelemetryRegistry::new();
        r.counter_with_labels("ops_total", "ops", &[("shard", "0")]);
        r.counter_with_labels("ops_total", "ops", &[("shard", "1")]);
        let text = r.render_prometheus();
        assert_eq!(text.matches("# HELP ops_total").count(), 1, "{text}");
    }

    #[test]
    fn interleaved_registration_renders_families_contiguously() {
        let r = TelemetryRegistry::new();
        // What per-shard attachment does: shard 0's whole set, then
        // shard 1's.
        for shard in ["0", "1"] {
            let l = [("shard", shard)];
            r.counter_with_labels("writes_total", "Writes", &l);
            r.counter_with_labels("reads_total", "Reads", &l);
            r.gauge_with_labels("depth", "Depth", &l);
            r.gauge_with_labels("free", "Free", &l);
            r.histogram_with_labels("lat_ns", "Latency", &[10], &l);
            r.histogram_with_labels("flips", "Flips", &[10], &l);
        }
        let text = r.render_prometheus();
        // The family of each sample line, in output order, with runs
        // collapsed: a family appearing twice was split by another.
        let mut runs: Vec<&str> = Vec::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let series = line.split(['{', ' ']).next().unwrap();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| series.strip_suffix(suffix))
                .unwrap_or(series);
            if runs.last() != Some(&family) {
                runs.push(family);
            }
        }
        assert_eq!(
            runs,
            [
                "writes_total",
                "reads_total",
                "depth",
                "free",
                "lat_ns",
                "flips"
            ],
            "{text}"
        );
        for family in &runs {
            assert_eq!(text.matches(&format!("# HELP {family} ")).count(), 1);
            assert_eq!(text.matches(&format!("# TYPE {family} ")).count(), 1);
        }
        // Label sets keep registration order within the family.
        let s0 = text.find("writes_total{shard=\"0\"}").unwrap();
        let s1 = text.find("writes_total{shard=\"1\"}").unwrap();
        assert!(s0 < s1, "{text}");
    }

    #[test]
    fn json_snapshot_includes_events() {
        let r = TelemetryRegistry::new();
        r.counter("c_total", "c").inc();
        r.journal().record(Event::FallbackPlacement {
            shard: 1,
            predicted: 2,
            used: 0,
        });
        let json = r.snapshot_json();
        assert!(json.starts_with("{\"enabled\":true"), "{json}");
        assert!(json.contains("\"name\":\"c_total\""), "{json}");
        assert!(json.contains("\"kind\":\"fallback_placement\""), "{json}");
        assert!(json.contains("\"events_recorded\":1"), "{json}");
    }

    #[test]
    fn clones_share_registrations() {
        let r = TelemetryRegistry::new();
        let r2 = r.clone();
        r.counter("shared_total", "s").add(2);
        assert_eq!(r2.counter_total("shared_total"), 2);
    }

    /// A component that keeps its own numbers, read as one source.
    struct Ledger(&'static str, u64);

    fn ledger(r: &TelemetryRegistry, shard: &'static str, writes: u64) -> Arc<Ledger> {
        let l = Arc::new(Ledger(shard, writes));
        r.source(&l, |l: &Ledger, out| {
            out.counter("writes_total", "Writes", &[("shard", l.0)], l.1);
            out.counter_f64("energy_total", "Energy", &[("shard", l.0)], 0.1 + 0.2);
            out.gauge("depth", "Depth", &[("shard", l.0)], -1);
        });
        l
    }

    #[test]
    fn sources_are_read_when_rendered_summed_and_forgotten_when_dropped() {
        let r = TelemetryRegistry::new();
        let a = ledger(&r, "0", 3);
        r.source(&a, |_: &Ledger, _| panic!("one source per owner"));
        let text = r.render_prometheus();
        assert!(text.contains("writes_total{shard=\"0\"} 3\n"), "{text}");
        assert!(text.contains("depth{shard=\"0\"} -1\n"), "{text}");
        let energy = text
            .lines()
            .find_map(|l| l.strip_prefix("energy_total{shard=\"0\"} "));
        assert_eq!(energy.unwrap().parse::<f64>(), Ok(0.1 + 0.2), "{text}");
        assert!(r
            .snapshot_json()
            .contains("{\"name\":\"writes_total\",\"labels\":{\"shard\":\"0\"},\"value\":3}"));
        // Equal series of two sources and a handle are summed.
        let b = ledger(&r, "0", 4);
        r.counter_with_labels("writes_total", "Writes", &[("shard", "0")])
            .add(5);
        assert_eq!(r.counter_total("writes_total"), 12);
        assert!(r.render_prometheus().contains("depth{shard=\"0\"} -2\n"));
        drop((a, b));
        assert_eq!(r.counter_total("writes_total"), 5);
        assert!(!r.render_prometheus().contains("depth"));
        assert!(
            r.inner.sources.lock().is_empty(),
            "dead sources are forgotten"
        );
    }

    #[test]
    fn handle_and_source_families_interleaved_render_one_group_each() {
        let r = TelemetryRegistry::new();
        let mut ledgers = Vec::new();
        for shard in ["0", "1"] {
            let labels = [("shard", shard)];
            r.counter_with_labels("reads_total", "Reads", &labels).inc();
            ledgers.push(ledger(&r, shard, 1));
            r.gauge_with_labels("free", "Free", &labels).set(7);
            r.counter_with_labels("writes_total", "Writes", &labels)
                .inc();
        }
        let text = r.render_prometheus();
        let samples: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.rsplit_once(' ').unwrap().0)
            .collect();
        let mut runs: Vec<&str> = samples
            .iter()
            .map(|s| s.split('{').next().unwrap())
            .collect();
        runs.dedup();
        let families = [
            "reads_total",
            "writes_total",
            "energy_total",
            "free",
            "depth",
        ];
        assert_eq!(runs, families, "{text}");
        for family in families {
            assert_eq!(text.matches(&format!("# TYPE {family} ")).count(), 1);
        }
        let mut unique = samples.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), samples.len(), "{text}");
        assert!(text.contains("writes_total{shard=\"1\"} 2\n"), "{text}");
    }
}
