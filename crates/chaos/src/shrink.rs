//! Counterexample shrinking: minimize a failing schedule while preserving
//! its failure.
//!
//! Three passes, cheapest reduction first:
//!
//! 1. **Delta debugging** (ddmin) over the fault-event list — find a
//!    1-minimal subset of transport faults that still fails.
//! 2. **Byzantine reduction** — lower the Byzantine count while the
//!    failure survives (the id workload re-derives automatically, since
//!    correct processes number `n − byzantine`).
//! 3. **Onset weakening** — push each surviving event's round later; a
//!    fault that bites later is a weaker, easier-to-read reproducer.
//!
//! The caller supplies the predicate (typically "re-execute and compare
//! the verdict digest"), so the shrinker is independent of backends and
//! oracle configuration.

use crate::schedule::ChaosSchedule;
use opr_transport::{FaultEvent, FaultPlan};

/// The outcome of shrinking: the minimized schedule plus bookkeeping.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The minimized schedule (still failing per the caller's predicate).
    pub schedule: ChaosSchedule,
    /// Fault events before shrinking.
    pub original_events: usize,
    /// Fault events after shrinking.
    pub events: usize,
    /// How many candidate schedules the predicate evaluated.
    pub attempts: usize,
}

/// Minimizes `original` under `still_fails`. The predicate must return
/// `true` for `original` itself (shrinking something that does not fail is
/// a caller bug; the original is returned untouched in that case).
pub(crate) fn shrink<F>(original: &ChaosSchedule, mut still_fails: F) -> ShrinkResult
where
    F: FnMut(&ChaosSchedule) -> bool,
{
    let mut attempts = 0usize;
    let mut current = original.clone();
    if !check(&current, &mut still_fails, &mut attempts) {
        return ShrinkResult {
            schedule: current,
            original_events: original.events.len(),
            events: original.events.len(),
            attempts,
        };
    }

    // Pass 1: ddmin over the event list.
    let minimized = ddmin(&current, &mut still_fails, &mut attempts);
    current = minimized;

    // Pass 2: reduce the Byzantine count.
    while current.byzantine > 0 {
        let mut candidate = current.clone();
        candidate.byzantine -= 1;
        if check(&candidate, &mut still_fails, &mut attempts) {
            current = candidate;
        } else {
            break;
        }
    }

    // Pass 3: weaken each event's onset (push it later) while the failure
    // survives. Bounded by the algorithm's step count, so this terminates.
    let max_round = current
        .cfg()
        .map(|cfg| cfg.total_steps(current.regime))
        .unwrap_or(2);
    let mut index = 0;
    while index < current.events.len() {
        while let Some(weaker) = weaken_event(current.events[index], max_round) {
            let mut events = current.events.clone();
            events[index] = weaker;
            let mut candidate = current.clone();
            candidate.events = canonical(events);
            // Canonicalization can merge events; keep the candidate only if
            // it still fails and the event under the cursor still exists.
            if candidate.events.len() == current.events.len()
                && check(&candidate, &mut still_fails, &mut attempts)
            {
                current = candidate;
            } else {
                break;
            }
        }
        index += 1;
    }

    ShrinkResult {
        schedule: current.clone(),
        original_events: original.events.len(),
        events: current.events.len(),
        attempts,
    }
}

fn check<F>(candidate: &ChaosSchedule, still_fails: &mut F, attempts: &mut usize) -> bool
where
    F: FnMut(&ChaosSchedule) -> bool,
{
    *attempts += 1;
    still_fails(candidate)
}

fn canonical(events: Vec<FaultEvent>) -> Vec<FaultEvent> {
    FaultPlan::from_events(events).events()
}

fn with_events(schedule: &ChaosSchedule, events: Vec<FaultEvent>) -> ChaosSchedule {
    let mut candidate = schedule.clone();
    candidate.events = canonical(events);
    candidate
}

/// Classic ddmin (Zeller & Hildebrandt) over the schedule's event list:
/// returns a schedule whose events are 1-minimal — removing any single
/// remaining event makes the failure disappear.
fn ddmin<F>(schedule: &ChaosSchedule, still_fails: &mut F, attempts: &mut usize) -> ChaosSchedule
where
    F: FnMut(&ChaosSchedule) -> bool,
{
    let mut events = schedule.events.clone();
    if events.is_empty() {
        return schedule.clone();
    }
    let mut granularity = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < events.len() {
            let end = (start + chunk).min(events.len());
            // Complement of events[start..end].
            let complement: Vec<FaultEvent> = events[..start]
                .iter()
                .chain(events[end..].iter())
                .copied()
                .collect();
            let candidate = with_events(schedule, complement);
            if check(&candidate, still_fails, attempts) {
                events = candidate.events;
                granularity = 2.max(granularity - 1);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= events.len() {
                break;
            }
            granularity = (granularity * 2).min(events.len());
        }
    }
    // Try the empty schedule too (the failure may come from the Byzantine
    // placement alone).
    if !events.is_empty() {
        let candidate = with_events(schedule, Vec::new());
        if check(&candidate, still_fails, attempts) {
            events = Vec::new();
        }
    }
    with_events(schedule, events)
}

/// One step weaker (later onset) version of `event`, or `None` when it is
/// already as weak as it can get within the round budget.
fn weaken_event(event: FaultEvent, max_round: u32) -> Option<FaultEvent> {
    match event {
        FaultEvent::Drop {
            sender,
            link,
            round,
        } if round < max_round => Some(FaultEvent::Drop {
            sender,
            link,
            round: round + 1,
        }),
        FaultEvent::SilenceLink { sender, link, from } if from < max_round => {
            Some(FaultEvent::SilenceLink {
                sender,
                link,
                from: from + 1,
            })
        }
        FaultEvent::Crash { sender, from } if from < max_round => Some(FaultEvent::Crash {
            sender,
            from: from + 1,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_schedule;
    use crate::schedule::BudgetRegime;
    use opr_adversary::AdversarySpec;
    use opr_types::Regime;
    use opr_workload::IdDistribution;

    fn dense_schedule(events: Vec<FaultEvent>) -> ChaosSchedule {
        ChaosSchedule {
            regime: Regime::LogTime,
            n: 7,
            t: 2,
            id_dist: IdDistribution::Dense,
            id_seed: 1,
            adversary: AdversarySpec::Silent,
            byzantine: 2,
            run_seed: 9,
            events: canonical(events),
            payload_cap: None,
        }
    }

    #[test]
    fn ddmin_isolates_the_single_culprit_event() {
        // Synthetic predicate: the failure needs exactly one specific event.
        let culprit = FaultEvent::Crash { sender: 3, from: 2 };
        let noise: Vec<FaultEvent> = (0..6)
            .map(|i| FaultEvent::Drop {
                sender: i % 3,
                link: 1 + i,
                round: 1 + (i as u32 % 3),
            })
            .collect();
        let mut events = noise;
        events.push(culprit);
        let schedule = dense_schedule(events);
        let result = shrink(&schedule, |s| s.events.contains(&culprit));
        assert_eq!(result.schedule.events, vec![culprit]);
        assert_eq!(result.events, 1);
        assert!(result.attempts > 0);
        // Byzantine reduction also ran: the predicate ignores placement.
        assert_eq!(result.schedule.byzantine, 0);
    }

    #[test]
    fn ddmin_finds_a_minimal_pair() {
        // The failure needs BOTH of two events — 1-minimality must keep both.
        let a = FaultEvent::Crash { sender: 1, from: 1 };
        let b = FaultEvent::Crash { sender: 2, from: 3 };
        let mut events = vec![a, b];
        events.extend((0..5).map(|i| FaultEvent::Drop {
            sender: 0,
            link: 1 + i,
            round: 1,
        }));
        let schedule = dense_schedule(events);
        let result = shrink(&schedule, |s| {
            s.events.contains(&a) && s.events.contains(&b)
        });
        assert_eq!(result.events, 2);
        assert!(result.schedule.events.contains(&a));
        assert!(result.schedule.events.contains(&b));
    }

    #[test]
    fn onset_weakening_pushes_events_later() {
        let early = FaultEvent::Crash { sender: 3, from: 1 };
        let schedule = dense_schedule(vec![early]);
        // Predicate: fails as long as sender 3 crashes at any round ≤ 5.
        let result = shrink(&schedule, |s| {
            s.events
                .iter()
                .any(|e| matches!(e, FaultEvent::Crash { sender: 3, from } if *from <= 5))
        });
        assert_eq!(
            result.schedule.events,
            vec![FaultEvent::Crash { sender: 3, from: 5 }]
        );
    }

    #[test]
    fn ddmin_on_an_empty_fault_plan_reduces_only_byzantine_count() {
        // The failure comes from the Byzantine placement alone: there are
        // no events to delta-debug, and the shrinker must not invent any.
        let schedule = dense_schedule(Vec::new());
        let result = shrink(&schedule, |s| s.byzantine >= 1);
        assert!(result.schedule.events.is_empty());
        assert_eq!(result.original_events, 0);
        assert_eq!(result.events, 0);
        assert_eq!(result.schedule.byzantine, 1, "minimal failing count");
    }

    #[test]
    fn ddmin_on_a_single_fault_plan_keeps_the_needed_event() {
        let culprit = FaultEvent::Drop {
            sender: 2,
            link: 4,
            round: 6,
        };
        let schedule = dense_schedule(vec![culprit]);
        let result = shrink(&schedule, |s| s.events.contains(&culprit));
        assert_eq!(result.schedule.events, vec![culprit]);
        assert_eq!(result.events, 1);
    }

    #[test]
    fn non_reproducing_mutants_mid_shrink_never_leak_into_the_result() {
        // A predicate with a "hole": schedules with exactly two events do
        // NOT reproduce, everything else containing the culprit does. The
        // shrinker must reject the non-reproducing intermediates and still
        // end on a failing schedule.
        let culprit = FaultEvent::Crash { sender: 3, from: 2 };
        let mut events = vec![culprit];
        events.extend((0..5).map(|i| FaultEvent::Drop {
            sender: i % 2,
            link: 1 + i,
            round: 1,
        }));
        let schedule = dense_schedule(events);
        let still_fails = |s: &ChaosSchedule| s.events.contains(&culprit) && s.events.len() != 2;
        let result = shrink(&schedule, still_fails);
        assert!(
            still_fails(&result.schedule),
            "shrink returned a non-failing schedule: {:?}",
            result.schedule.events
        );
        assert_eq!(result.schedule.events, vec![culprit]);
    }

    #[test]
    fn non_failing_input_is_returned_untouched() {
        let schedule = generate_schedule(5, BudgetRegime::AtBudget);
        let result = shrink(&schedule, |_| false);
        assert_eq!(result.schedule, schedule);
        assert_eq!(result.attempts, 1);
    }

    #[test]
    fn shrunk_schedules_stay_canonical() {
        let culprit = FaultEvent::SilenceLink {
            sender: 4,
            link: 2,
            from: 2,
        };
        let mut events = vec![culprit];
        events.extend((0..4).map(|i| FaultEvent::Drop {
            sender: i,
            link: 1,
            round: 2,
        }));
        let schedule = dense_schedule(events);
        let result = shrink(&schedule, |s| {
            s.events
                .iter()
                .any(|e| matches!(e, FaultEvent::SilenceLink { sender: 4, .. }))
        });
        assert_eq!(
            FaultPlan::from_events(result.schedule.events.iter().copied()).events(),
            result.schedule.events
        );
    }
}
