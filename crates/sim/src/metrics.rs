//! Run metrics: rounds, messages and bits, split by sender correctness.
//!
//! The message-complexity experiment (T3) compares these counters against
//! the paper's `O(N² log t)` message bound and per-message bit bounds, so the
//! network engine maintains them for every run.

use std::sync::Arc;

/// Counters for a single round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundMetrics {
    /// Messages sent by correct processes (self-loop deliveries excluded —
    /// the paper counts network messages).
    pub messages_correct: u64,
    /// Messages sent by faulty processes.
    pub messages_faulty: u64,
    /// Total bits sent by correct processes.
    pub bits_correct: u64,
    /// Largest single message (in bits) sent by a correct process.
    pub max_message_bits: u64,
}

/// Counters for a complete run.
///
/// The per-round list is shared: a clone is a handle, and a write goes into
/// the list itself only while no clone holds it (into a copy otherwise), so
/// a network hands its metrics to a run's caller without copying them and
/// reuses their storage for the next run once the caller has let go.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMetrics {
    rounds: Arc<Vec<RoundMetrics>>,
}

impl RunMetrics {
    /// Forgets every round, keeping the storage while no clone holds it.
    pub(crate) fn clear(&mut self) {
        match Arc::get_mut(&mut self.rounds) {
            Some(rounds) => rounds.clear(),
            None => self.rounds = Arc::default(),
        }
    }

    /// Records the metrics of the next round.
    pub fn push_round(&mut self, round: RoundMetrics) {
        Arc::make_mut(&mut self.rounds).push(round);
    }

    /// Number of rounds executed, saturating at `u32::MAX` (no real run gets
    /// near that, but a bare `as` cast would silently wrap).
    pub fn rounds_executed(&self) -> u32 {
        u32::try_from(self.rounds.len()).unwrap_or(u32::MAX)
    }

    /// Per-round counters, in execution order.
    pub fn per_round(&self) -> &[RoundMetrics] {
        &self.rounds
    }

    /// Total messages sent by correct processes over the run.
    pub fn messages_correct(&self) -> u64 {
        self.rounds.iter().map(|r| r.messages_correct).sum()
    }

    /// Total messages sent by faulty processes over the run.
    pub fn messages_faulty(&self) -> u64 {
        self.rounds.iter().map(|r| r.messages_faulty).sum()
    }

    /// Total bits sent by correct processes over the run.
    pub fn bits_correct(&self) -> u64 {
        self.rounds.iter().map(|r| r.bits_correct).sum()
    }

    /// The largest single correct message over the run, in bits.
    pub fn max_message_bits(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.max_message_bits)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_across_rounds() {
        let mut m = RunMetrics::default();
        m.push_round(RoundMetrics {
            messages_correct: 10,
            messages_faulty: 2,
            bits_correct: 480,
            max_message_bits: 48,
        });
        m.push_round(RoundMetrics {
            messages_correct: 5,
            messages_faulty: 0,
            bits_correct: 500,
            max_message_bits: 100,
        });
        assert_eq!(m.rounds_executed(), 2);
        assert_eq!(m.messages_correct(), 15);
        assert_eq!(m.messages_faulty(), 2);
        assert_eq!(m.bits_correct(), 980);
        assert_eq!(m.max_message_bits(), 100);
        assert_eq!(m.per_round().len(), 2);
    }

    /// A clone shares the rounds and never sees a later write; an unshared
    /// list is cleared in place.
    #[test]
    fn a_clone_is_a_handle_that_later_writes_leave_alone() {
        let mut m = RunMetrics::default();
        m.push_round(RoundMetrics::default());
        let kept = m.clone();
        assert!(Arc::ptr_eq(&m.rounds, &kept.rounds));
        m.clear();
        m.push_round(RoundMetrics::default());
        m.push_round(RoundMetrics::default());
        assert_eq!((kept.rounds_executed(), m.rounds_executed()), (1, 2));
        drop(kept);
        let list = Arc::as_ptr(&m.rounds);
        m.clear();
        assert_eq!(Arc::as_ptr(&m.rounds), list);
        assert_eq!(m.rounds_executed(), 0);
    }

    #[test]
    fn empty_run() {
        let m = RunMetrics::default();
        assert_eq!(m.rounds_executed(), 0);
        assert_eq!(m.messages_correct() + m.messages_faulty(), 0);
        assert_eq!(m.max_message_bits(), 0);
    }
}
