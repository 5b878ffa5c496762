//! The reference substrate: [`opr_sim::Network`] stepped on the calling
//! thread.

use crate::substrate::{run_job, run_network, BackendKind, ExecutionReport, Job, Substrate};
use crate::ExecOptions;
use opr_sim::{Actor, Network, RunReport, WireSize};
use std::fmt::Debug;

/// Executes jobs with [`Network::step`] — single-threaded, bit-for-bit
/// reproducible, the schedule every other one is compared against.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SimBackend;

impl SimBackend {
    /// Runs `net` on the calling thread; see [`BackendKind::run`].
    pub(crate) fn run<M, O, A>(
        &self,
        net: &mut Network<M, O, A>,
        opts: ExecOptions,
        max_rounds: u32,
    ) -> RunReport
    where
        M: Clone + Debug + WireSize + Sync,
        A: Actor<Msg = M, Output = O>,
    {
        run_network(net, opts, max_rounds, BackendKind::Sim, Network::step)
    }
}

impl<M, O> Substrate<M, O> for SimBackend
where
    M: Clone + Debug + WireSize + Sync,
{
    fn execute(&self, job: Job<M, O>) -> ExecutionReport<O> {
        run_job(job, |net, opts, max_rounds| self.run(net, opts, max_rounds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecOptions, FaultPlan};
    use opr_sim::{Actor, Inbox, Outbox, Topology};
    use opr_types::{LinkId, Round};

    #[derive(Clone, Debug)]
    struct Num(#[allow(dead_code)] u64);
    impl WireSize for Num {
        fn wire_bits(&self) -> u64 {
            64
        }
    }

    struct Counter {
        seen: u64,
        done: Option<u64>,
    }
    impl Actor for Counter {
        type Msg = Num;
        type Output = u64;
        fn send(&mut self, _round: Round) -> Outbox<Num> {
            Outbox::Broadcast(Num(1))
        }
        fn deliver(&mut self, round: Round, inbox: Inbox<Num>) {
            self.seen += inbox.len() as u64;
            if round.number() == 2 {
                self.done = Some(self.seen);
            }
        }
        fn output(&self) -> Option<u64> {
            self.done
        }
    }

    fn counters(n: usize) -> Vec<Box<dyn Actor<Msg = Num, Output = u64>>> {
        (0..n)
            .map(|_| {
                Box::new(Counter {
                    seen: 0,
                    done: None,
                }) as _
            })
            .collect()
    }

    #[test]
    fn runs_to_completion_and_reports() {
        let report = SimBackend.execute(Job::new(counters(3), Topology::canonical(3), 5));
        assert!(report.completed);
        assert_eq!(report.rounds_executed, 2);
        // Every actor saw 3 messages per round (2 peers + self-loop).
        assert_eq!(report.outputs, vec![Some(6), Some(6), Some(6)]);
        assert_eq!(report.metrics.messages_correct(), 2 * 3 * 2);
    }

    #[test]
    fn fault_plan_removes_deliveries_and_metrics() {
        let clean = SimBackend.execute(Job::new(counters(3), Topology::canonical(3), 5));
        let faulty = SimBackend.execute(Job::new(counters(3), Topology::canonical(3), 5).opts(
            ExecOptions {
                faults: FaultPlan::default().drop_message(0, LinkId::new(1), Round::new(1)),
                ..ExecOptions::default()
            },
        ));
        assert_eq!(
            faulty.metrics.messages_correct(),
            clean.metrics.messages_correct() - 1
        );
        // Process 0's link 1 in the canonical topology points at process 1,
        // which therefore saw one message fewer.
        assert_eq!(faulty.outputs[1], Some(5));
        assert_eq!(faulty.outputs[2], Some(6));
    }

    #[test]
    fn trace_capacity_is_honoured() {
        let report = SimBackend.execute(Job::new(counters(2), Topology::canonical(2), 5).opts(
            ExecOptions {
                trace_capacity: Some(3),
                ..ExecOptions::default()
            },
        ));
        let trace = report.trace.expect("trace requested");
        assert_eq!(trace.events().len(), 3);
        assert!(trace.dropped() > 0);
    }
}
