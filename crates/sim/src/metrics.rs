//! Run metrics: rounds, messages and bits, split by sender correctness.
//!
//! The message-complexity experiment (T3) compares these counters against
//! the paper's `O(N² log t)` message bound and per-message bit bounds, so the
//! network engine maintains them for every run.

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

impl RoundMetrics {
    /// Total messages from all processes.
    pub(crate) fn messages_total(&self) -> u64 {
        self.messages_correct + self.messages_faulty
    }
}

/// Counters for a complete run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMetrics {
    rounds: Vec<RoundMetrics>,
}

impl RunMetrics {
    /// An empty metrics accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the metrics of the next round.
    pub fn push_round(&mut self, round: RoundMetrics) {
        self.rounds.push(round);
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

    /// Total messages from all processes over the run.
    pub fn messages_total(&self) -> u64 {
        self.rounds.iter().map(RoundMetrics::messages_total).sum()
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
        let mut m = RunMetrics::new();
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
        assert_eq!(m.messages_total(), 17);
        assert_eq!(m.bits_correct(), 980);
        assert_eq!(m.max_message_bits(), 100);
        assert_eq!(m.per_round().len(), 2);
    }

    #[test]
    fn empty_run() {
        let m = RunMetrics::new();
        assert_eq!(m.rounds_executed(), 0);
        assert_eq!(m.messages_total(), 0);
        assert_eq!(m.max_message_bits(), 0);
    }
}
