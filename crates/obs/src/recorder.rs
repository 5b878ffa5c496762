//! Recorder sinks for [`ProtocolEvent`]s.
//!
//! The default recorder is a zero-sized no-op: actors hold an
//! `Option<SharedRecorder>` that is `None` unless the run explicitly asks
//! for telemetry, and every emission site goes through [`record_if`], whose
//! event-constructing closure is *never invoked* when no recorder is
//! attached. Disabled runs therefore pay one branch per decision point and
//! zero allocations — `tests/alloc_gates.rs` pins this with a counting allocator.

use std::sync::{Arc, Mutex};

use crate::event::ProtocolEvent;

/// A sink for protocol decision events.
pub trait Recorder {
    /// Whether this recorder keeps events at all. Callers may skip
    /// constructing expensive events when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event.
    fn record(&mut self, event: ProtocolEvent);
}

/// The zero-cost default: discards everything.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: ProtocolEvent) {}
}

/// An in-memory recorder that keeps every event in emission order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemoryRecorder {
    events: Vec<ProtocolEvent>,
}

impl MemoryRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        MemoryRecorder::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[ProtocolEvent] {
        &self.events
    }

    /// Consumes the recorder, yielding its events.
    pub fn into_events(self) -> Vec<ProtocolEvent> {
        self.events
    }
}

impl Recorder for MemoryRecorder {
    fn record(&mut self, event: ProtocolEvent) {
        self.events.push(event);
    }
}

/// A shareable recorder handle: one per process, cloned into the actor and
/// kept by the runner for post-run collection. `Mutex` (not `RefCell`)
/// because the pooled backend steps actors on worker threads.
pub type SharedRecorder = Arc<Mutex<MemoryRecorder>>;

/// Creates a fresh [`SharedRecorder`].
pub fn shared_recorder() -> SharedRecorder {
    Arc::new(Mutex::new(MemoryRecorder::new()))
}

/// Records the event produced by `make` iff a recorder is attached.
///
/// The closure is not invoked when `recorder` is `None`, so disabled runs
/// never construct events (and never allocate for their payloads).
#[inline]
pub fn record_if(recorder: Option<&SharedRecorder>, make: impl FnOnce() -> ProtocolEvent) {
    if let Some(shared) = recorder {
        let event = make();
        shared.lock().unwrap().record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_types::NewName;

    fn decided(step: u32) -> ProtocolEvent {
        ProtocolEvent::Decided {
            step,
            name: NewName::new(1),
        }
    }

    #[test]
    fn memory_recorder_keeps_emission_order() {
        let mut rec = MemoryRecorder::new();
        rec.record(decided(1));
        rec.record(decided(2));
        assert!(rec.enabled());
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.events()[0].step(), 1);
        assert_eq!(rec.into_events()[1].step(), 2);
    }

    #[test]
    fn noop_recorder_reports_disabled() {
        let mut noop = NoopRecorder;
        assert!(!noop.enabled());
        noop.record(decided(1));
    }

    #[test]
    fn record_if_never_constructs_when_detached() {
        // The closure must not run: panicking proves zero event construction
        // (and hence zero allocation) on the disabled path.
        record_if(None, || panic!("constructed an event with no recorder"));
    }

    #[test]
    fn record_if_appends_when_attached() {
        let shared = shared_recorder();
        record_if(Some(&shared), || decided(3));
        assert_eq!(shared.lock().unwrap().events().len(), 1);
    }
}
