//! A bounded, human-readable event trace for debugging protocol runs.
//!
//! Tracing is opt-in (see [`Network::enable_trace`](crate::Network)); when
//! enabled, every delivery is recorded as a formatted [`TraceEvent`]. The
//! buffer is capacity-bounded so pathological runs cannot exhaust memory,
//! and events past the bound are counted without being rendered.

use opr_types::{LinkId, ProcessIndex, Round};
use std::fmt;

/// One recorded delivery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The round the message was sent and delivered in.
    pub round: Round,
    /// Sending process (simulator index).
    pub sender: ProcessIndex,
    /// Receiving process (simulator index).
    pub receiver: ProcessIndex,
    /// The label the receiver saw the message arrive on.
    pub link: LinkId,
    /// Debug rendering of the message.
    pub message: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?}] {:?} -> {:?} (on {:?}): {}",
            self.round, self.sender, self.receiver, self.link, self.message
        )
    }
}

/// A capacity-bounded event buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Creates a trace retaining at most `capacity` events (oldest first;
    /// once full, further events are counted but not stored).
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records an event, or counts it as dropped when the buffer is full.
    pub fn record(&mut self, event: TraceEvent) {
        self.record_with(|| event);
    }

    /// [`record`](Trace::record) for an event that costs something to
    /// build: `make` runs only when there is room, so a full buffer bounds
    /// the work of tracing as well as its memory.
    pub fn record_with(&mut self, make: impl FnOnce() -> TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(make());
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// How many events did not fit in the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events delivered to a given receiver.
    pub fn deliveries_to(&self, receiver: ProcessIndex) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.receiver == receiver)
    }

    /// Events belonging to a given round.
    pub fn in_round(&self, round: Round) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.round == round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(round: u32, s: usize, r: usize) -> TraceEvent {
        TraceEvent {
            round: Round::new(round),
            sender: ProcessIndex::new(s),
            receiver: ProcessIndex::new(r),
            link: LinkId::new(1),
            message: "m".to_owned(),
        }
    }

    #[test]
    fn records_until_capacity_then_counts_drops() {
        let mut t = Trace::with_capacity(2);
        t.record(event(1, 0, 1));
        t.record(event(1, 1, 0));
        t.record(event(2, 0, 1));
        t.record_with(|| panic!("built an event there was no room for"));
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn filters_by_receiver_and_round() {
        let mut t = Trace::with_capacity(10);
        t.record(event(1, 0, 1));
        t.record(event(1, 2, 1));
        t.record(event(2, 0, 2));
        assert_eq!(t.deliveries_to(ProcessIndex::new(1)).count(), 2);
        assert_eq!(t.in_round(Round::new(2)).count(), 1);
    }

    #[test]
    fn display_contains_endpoints() {
        let e = event(3, 4, 5);
        let s = e.to_string();
        assert!(s.contains("r3") && s.contains("p4") && s.contains("p5"));
    }
}
