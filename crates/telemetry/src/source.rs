//! Read-through sources: a component that already keeps a number (a
//! device ledger, a cache shard's hit count, a free-list length)
//! registers a callback with [`crate::TelemetryRegistry::source`] that
//! pushes it into [`Samples`] whenever the registry renders — nothing
//! is mirrored on the component's hot path. The registry holds the
//! component weakly: once it is dropped, its callback is forgotten.

use crate::registry::Labels;
use std::fmt;
use std::sync::{Arc, Weak};

/// A sample's value: the kinds a source can emit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Value {
    /// An integer counter.
    Count(u64),
    /// A real-valued counter (energy, modeled time).
    Real(f64),
    /// A gauge.
    Level(i64),
}

impl Value {
    pub(crate) fn add(&mut self, other: Value) {
        *self = match (*self, other) {
            (Value::Count(a), Value::Count(b)) => Value::Count(a.wrapping_add(b)),
            (Value::Real(a), Value::Real(b)) => Value::Real(a + b),
            (Value::Level(a), Value::Level(b)) => Value::Level(a.wrapping_add(b)),
            // One family emitted with two value kinds: keep the first.
            (kept, _) => kept,
        };
    }

    pub(crate) fn is_counter(self) -> bool {
        !matches!(self, Value::Level(_))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Count(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v}"),
            Value::Level(v) => write!(f, "{v}"),
        }
    }
}

/// One emitted series: family name, help text, canonical labels and
/// value.
#[derive(Clone, Debug)]
pub(crate) struct Sample {
    pub(crate) name: String,
    pub(crate) help: String,
    pub(crate) labels: Labels,
    pub(crate) value: Value,
}

/// The buffer a source callback emits into. Samples with equal name
/// and labels are summed, whichever source emitted them.
#[derive(Debug, Default)]
pub struct Samples {
    pub(crate) rows: Vec<Sample>,
}

impl Samples {
    /// Emit an integer counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.emit(name, help, labels, Value::Count(value));
    }

    /// Emit a real-valued counter sample, rendered with `{}` (the
    /// shortest text that parses back to the same `f64`).
    pub fn counter_f64(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.emit(name, help, labels, Value::Real(value));
    }

    /// Emit a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: i64) {
        self.emit(name, help, labels, Value::Level(value));
    }

    fn emit(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: Value) {
        self.push(name, help, &crate::registry::canonical(labels), value);
    }

    /// Add `value` to the row with this name and labels, or append one.
    pub(crate) fn push(&mut self, name: &str, help: &str, labels: &Labels, value: Value) {
        match self
            .rows
            .iter_mut()
            .find(|s| s.name == name && &s.labels == labels)
        {
            Some(s) => s.value.add(value),
            None => self.rows.push(Sample {
                name: name.to_string(),
                help: help.to_string(),
                labels: labels.clone(),
                value,
            }),
        }
    }
}

/// A registered source: its owner's address (one source per owner)
/// and a callback that emits the owner's samples, or answers `false`
/// once the owner is gone.
#[derive(Clone)]
pub(crate) struct Source {
    pub(crate) owner: usize,
    pub(crate) emit: Arc<dyn Fn(&mut Samples) -> bool + Send + Sync>,
}

impl Source {
    /// A source over `owner`, held weakly.
    pub(crate) fn new<T, F>(owner: &Arc<T>, emit: F) -> Self
    where
        T: ?Sized + Send + Sync + 'static,
        F: Fn(&T, &mut Samples) + Send + Sync + 'static,
    {
        let weak: Weak<T> = Arc::downgrade(owner);
        Self {
            owner: Arc::as_ptr(owner) as *const () as usize,
            emit: Arc::new(move |out: &mut Samples| match weak.upgrade() {
                Some(owner) => {
                    emit(&owner, out);
                    true
                }
                None => false,
            }),
        }
    }
}
