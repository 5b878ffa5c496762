//! Wall-clock spans for substrate- and pool-level timing.
//!
//! Spans are the *non-deterministic* half of the telemetry: real durations
//! of rounds and pool tasks. They are kept strictly apart from the protocol
//! event stream — never merged into it, never equality-gated, and excluded
//! from golden renderings — because wall timings differ across machines
//! and runs by nature.
//!
//! Span names are `&'static str` plus up to two numeric qualifiers, so
//! recording a span never allocates (beyond amortised `Vec` growth, which
//! [`SpanLog::with_capacity`] removes entirely — the `obs` bench group gates
//! this at zero allocations per record).

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One named wall-clock interval, relative to its log's epoch.
///
/// The human-readable form is produced on demand by [`Span::label`]; the
/// stored representation is allocation-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What the interval covers, e.g. `"round"` or `"epoch protocol"`.
    pub name: &'static str,
    /// Primary qualifier (round number, stage index, epoch...), if any.
    pub index: Option<u64>,
    /// Secondary qualifier (task count, shard index...), if any.
    pub detail: Option<u64>,
    /// Microseconds from the owning [`SpanLog`]'s epoch to the start.
    pub start_micros: u64,
    /// Length of the interval in microseconds.
    pub duration_micros: u64,
}

impl Span {
    /// Render the span's name with its qualifiers, e.g. `"round 3"` or
    /// `"epoch protocol 2 (1)"`. Allocates; exporters call this, hot paths
    /// don't.
    pub fn label(&self) -> String {
        match (self.index, self.detail) {
            (None, None) => self.name.to_string(),
            (Some(i), None) => format!("{} {}", self.name, i),
            (Some(i), Some(d)) => format!("{} {} ({})", self.name, i, d),
            (None, Some(d)) => format!("{} ({})", self.name, d),
        }
    }
}

/// A collection of wall-clock spans sharing one epoch.
#[derive(Clone, Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A fresh log whose epoch is now.
    pub(crate) fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A fresh log with room for `capacity` spans before any reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// The log's epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records an interval from `start` to now under a bare static name.
    #[inline]
    pub fn record_since(&mut self, name: &'static str, start: Instant) {
        self.push(name, None, None, start);
    }

    /// Records an interval with one numeric qualifier (`"round 3"`).
    #[inline]
    pub fn record_indexed(&mut self, name: &'static str, index: u64, start: Instant) {
        self.push(name, Some(index), None, start);
    }

    /// Records an interval with two numeric qualifiers
    /// (`"epoch protocol 2 (1)"`: epoch 2, shard 1).
    #[inline]
    pub fn record_detailed(&mut self, name: &'static str, index: u64, detail: u64, start: Instant) {
        self.push(name, Some(index), Some(detail), start);
    }

    fn push(
        &mut self,
        name: &'static str,
        index: Option<u64>,
        detail: Option<u64>,
        start: Instant,
    ) {
        let start_micros = start.saturating_duration_since(self.epoch).as_micros() as u64;
        let duration_micros = start.elapsed().as_micros() as u64;
        self.spans.push(Span {
            name,
            index,
            detail,
            start_micros,
            duration_micros,
        });
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

/// A shareable span log: the substrate and the pool write from worker
/// threads, the caller reads after the run.
pub type SharedSpanLog = Arc<Mutex<SpanLog>>;

/// Creates a fresh [`SharedSpanLog`] with epoch now.
pub fn shared_span_log() -> SharedSpanLog {
    Arc::new(Mutex::new(SpanLog::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_since_measures_forward_time() {
        let mut log = SpanLog::new();
        let start = Instant::now();
        log.record_indexed("round", 1, start);
        assert_eq!(log.spans().len(), 1);
        let span = &log.spans()[0];
        assert_eq!(span.label(), "round 1");
        // Start may be 0 µs on a fast machine; duration is non-negative by
        // construction. Just check the span is self-consistent.
        assert!(span.start_micros < 1_000_000);
    }

    #[test]
    fn labels_render_qualifiers() {
        let mk = |index, detail| Span {
            name: "epoch protocol",
            index,
            detail,
            start_micros: 0,
            duration_micros: 0,
        };
        assert_eq!(mk(None, None).label(), "epoch protocol");
        assert_eq!(mk(Some(2), None).label(), "epoch protocol 2");
        assert_eq!(mk(Some(2), Some(8)).label(), "epoch protocol 2 (8)");
        assert_eq!(mk(None, Some(8)).label(), "epoch protocol (8)");
    }

    #[test]
    fn shared_log_collects_across_clones() {
        let shared = shared_span_log();
        let writer = Arc::clone(&shared);
        let start = Instant::now();
        writer.lock().unwrap().record_since("task", start);
        drop(writer);
        assert_eq!(shared.lock().unwrap().spans().len(), 1);
        let log = Arc::try_unwrap(shared)
            .map(|m| m.into_inner().unwrap())
            .unwrap_or_default();
        assert!(!log.spans().is_empty());
    }

    #[test]
    fn with_capacity_records_without_growth() {
        let mut log = SpanLog::with_capacity(16);
        let start = Instant::now();
        for i in 0..16 {
            log.record_indexed("round", i, start);
        }
        assert_eq!(log.spans().len(), 16);
    }
}
