//! The recorder sink for [`ProtocolEvent`]s.
//!
//! Actors hold an `Option<SharedRecorder>` that is `None` unless the run
//! explicitly asks for telemetry, and every emission site goes through
//! [`record_if`], whose event-constructing closure is *never invoked* when
//! no recorder is attached. Disabled runs therefore pay one branch per
//! decision point and zero allocations — `tests/alloc_gates.rs` pins this
//! with a counting allocator.

use std::sync::{Arc, Mutex};

use crate::event::ProtocolEvent;

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

    /// Records one event.
    pub fn record(&mut self, event: ProtocolEvent) {
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
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.events()[0].step(), 1);
        assert_eq!(rec.into_events()[1].step(), 2);
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
