//! Flight recorder: a bounded ring of recent epoch summaries, dumped when an
//! oracle trips or a worker panics so the operator sees the run-up, not just
//! the crash frame.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One epoch's worth of service health, cheap enough to record always-on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochSummary {
    pub epoch: u64,
    pub grants: u64,
    pub releases: u64,
    pub deferred: u64,
    pub recycled: u64,
    pub queue_depth: u64,
    pub backlog: u64,
    pub free_names: u64,
    pub live_names: u64,
    pub protocol_runs: u64,
    pub latency_micros: u64,
}

/// Fixed-capacity ring of the last K [`EpochSummary`] records.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<EpochSummary>,
    dropped: u64,
}

impl FlightRecorder {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ring: VecDeque::with_capacity(capacity.max(1)),
            dropped: 0,
        }
    }

    pub fn push(&mut self, summary: EpochSummary) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(summary);
    }

    /// Oldest-first view of the retained summaries.
    pub fn summaries(&self) -> Vec<EpochSummary> {
        self.ring.iter().cloned().collect()
    }

    /// Count of summaries that aged out of the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the ring as a fixed-width table headed by `reason`.
    pub fn render(&self, reason: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "flight recorder dump ({reason}): last {} of {} epochs\n",
            self.ring.len(),
            self.ring.len() as u64 + self.dropped,
        ));
        out.push_str(
            "  epoch   grants releases deferred recycled  queue backlog   free   live   runs  lat_us\n",
        );
        for s in &self.ring {
            out.push_str(&format!(
                "  {:>5} {:>8} {:>8} {:>8} {:>8} {:>6} {:>7} {:>6} {:>6} {:>6} {:>7}\n",
                s.epoch,
                s.grants,
                s.releases,
                s.deferred,
                s.recycled,
                s.queue_depth,
                s.backlog,
                s.free_names,
                s.live_names,
                s.protocol_runs,
                s.latency_micros,
            ));
        }
        out
    }
}

/// Shared handle: the service engine pushes, the driver/bin dumps.
pub type SharedFlightRecorder = Arc<Mutex<FlightRecorder>>;

pub fn shared_flight_recorder(capacity: usize) -> SharedFlightRecorder {
    Arc::new(Mutex::new(FlightRecorder::new(capacity)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_last_k() {
        let mut fr = FlightRecorder::new(4);
        for epoch in 0..10 {
            fr.push(EpochSummary {
                epoch,
                ..Default::default()
            });
        }
        let kept: Vec<u64> = fr.summaries().iter().map(|s| s.epoch).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
        assert_eq!(fr.dropped(), 6);
        let dump = fr.render("test");
        assert!(dump.contains("last 4 of 10 epochs"));
        assert!(dump.lines().count() == 2 + 4);
    }
}
