//! Per-run event logs: one ordered event list per correct process, plus a
//! deterministic merged view for exporters.

use opr_types::OriginalId;

use crate::event::ProtocolEvent;

/// The events one correct process emitted, in emission order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProcessLog {
    /// The process's original id.
    pub id: OriginalId,
    /// Its events, in emission order.
    pub events: Vec<ProtocolEvent>,
}

/// One event of the merged run view, tagged with its owner.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct MergedEvent {
    /// Zero-based position of the owning process in the run's correct-actor
    /// order (a stable presentation index, not a protocol identity).
    pub process: usize,
    /// The owning process's original id.
    pub id: OriginalId,
    /// Position of the event within its process's own log.
    pub seq: usize,
    /// The event itself.
    pub event: ProtocolEvent,
}

/// The deterministic protocol event stream of one run.
///
/// Process order follows the run's correct-actor order; every field is a
/// pure function of delivered messages, so two `RunLog`s from the same
/// schedule compare bit-identical.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunLog {
    /// One log per correct process, in correct-actor order.
    pub processes: Vec<ProcessLog>,
}

impl RunLog {
    /// Total number of events across all processes.
    pub fn len(&self) -> usize {
        self.processes.iter().map(|p| p.events.len()).sum()
    }

    /// Whether no process emitted any event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A merged, deterministically-ordered view: by step, then process
    /// position, then per-process emission order.
    pub(crate) fn merged(&self) -> Vec<MergedEvent> {
        let mut merged: Vec<MergedEvent> = Vec::with_capacity(self.len());
        for (process, log) in self.processes.iter().enumerate() {
            for (seq, event) in log.events.iter().enumerate() {
                merged.push(MergedEvent {
                    process,
                    id: log.id,
                    seq,
                    event: event.clone(),
                });
            }
        }
        merged.sort_by_key(|m| (m.event.step(), m.process, m.seq));
        merged
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
    fn merged_orders_by_step_then_process_then_seq() {
        let log = RunLog {
            processes: vec![
                ProcessLog {
                    id: OriginalId::new(10),
                    events: vec![decided(2), decided(3)],
                },
                ProcessLog {
                    id: OriginalId::new(20),
                    events: vec![decided(1), decided(2)],
                },
            ],
        };
        assert_eq!(log.len(), 4);
        let merged = log.merged();
        let order: Vec<(u32, usize, usize)> = merged
            .iter()
            .map(|m| (m.event.step(), m.process, m.seq))
            .collect();
        assert_eq!(order, vec![(1, 1, 0), (2, 0, 0), (2, 1, 1), (3, 0, 1)]);
        assert_eq!(merged[0].id, OriginalId::new(20));
    }

    #[test]
    fn empty_log_is_empty() {
        assert!(RunLog::default().is_empty());
    }
}
