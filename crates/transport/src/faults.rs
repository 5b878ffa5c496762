//! Transport-level fault injection: scheduled link failures *below* the
//! adversary layer.
//!
//! The Byzantine adversaries in `opr-adversary` act through the protocol
//! interface — they choose what to send. A [`FaultPlan`] instead fails the
//! *links themselves*: a scheduled message drop, or a link that falls silent
//! from some round on (in the synchronous model a message delayed past its
//! round boundary is indistinguishable from silence, so "delay-to-silence"
//! is the honest name for the second schedule). Crash-style faults compose
//! from these: silencing every outgoing link of a process from round `r` is
//! exactly a crash at the end of round `r − 1`.
//!
//! Links are identified by `(sender index, outgoing link label)` — the
//! sender-side view, matching where a real transport would fail. Plans are
//! applied before routing, metrics and tracing.

use opr_types::{LinkId, ProcessIndex, Round};
use std::collections::{BTreeMap, BTreeSet};

/// One scheduled transport fault, the unit a [`FaultPlan`] is built from —
/// and the unit the chaos shrinker removes or weakens when minimizing a
/// failing schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultEvent {
    /// Drop the message `sender` emits on `link` in exactly `round`.
    Drop {
        /// The sending process index.
        sender: usize,
        /// The 1-based outgoing link label.
        link: usize,
        /// The 1-based round.
        round: u32,
    },
    /// Silence `sender`'s `link` from `from` onwards.
    SilenceLink {
        /// The sending process index.
        sender: usize,
        /// The 1-based outgoing link label.
        link: usize,
        /// First silent round (1-based).
        from: u32,
    },
    /// Silence every outgoing link of `sender` from `from` onwards.
    Crash {
        /// The crashing process index.
        sender: usize,
        /// First silent round (1-based).
        from: u32,
    },
}

impl FaultEvent {
    /// The process whose outgoing traffic this event disturbs.
    pub(crate) fn sender(&self) -> usize {
        match *self {
            FaultEvent::Drop { sender, .. }
            | FaultEvent::SilenceLink { sender, .. }
            | FaultEvent::Crash { sender, .. } => sender,
        }
    }
}

/// A deterministic schedule of transport faults; the default plan is empty
/// (all links healthy forever).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// One-shot drops: `(sender, link label, round)`.
    drops: BTreeSet<(usize, usize, u32)>,
    /// Per-link silence onset: `(sender, link label) → first silent round`.
    link_silences: BTreeMap<(usize, usize), u32>,
    /// Whole-process silence onset: `sender → first silent round`.
    process_silences: BTreeMap<usize, u32>,
}

impl FaultPlan {
    /// Drops the message `sender` emits on `link` in exactly `round`.
    /// Other rounds on the link are unaffected.
    pub fn drop_message(mut self, sender: usize, link: LinkId, round: Round) -> Self {
        self.drops.insert((sender, link.label(), round.number()));
        self
    }

    /// Silences `sender`'s `link` from `round` onwards — the
    /// delay-to-silence schedule: every message from that round on is
    /// delayed past its round boundary and therefore never delivered.
    pub fn silence_link_from(mut self, sender: usize, link: LinkId, round: Round) -> Self {
        let entry = self
            .link_silences
            .entry((sender, link.label()))
            .or_insert(round.number());
        *entry = (*entry).min(round.number());
        self
    }

    /// Silences every outgoing link of `sender` from `round` onwards — a
    /// crash at the transport layer, invisible to (and unchosen by) the
    /// actor above.
    pub fn crash_from(mut self, sender: usize, round: Round) -> Self {
        let entry = self
            .process_silences
            .entry(sender)
            .or_insert(round.number());
        *entry = (*entry).min(round.number());
        self
    }

    /// Whether the plan schedules no faults at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.drops.is_empty() && self.link_silences.is_empty() && self.process_silences.is_empty()
    }

    /// The plan as a canonical, ordered list of [`FaultEvent`]s — drops,
    /// then link silences, then crashes, each in key order.
    /// `FaultPlan::from_events(plan.events()) == plan` always holds.
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut events: Vec<FaultEvent> = Vec::new();
        events.extend(
            self.drops
                .iter()
                .map(|&(sender, link, round)| FaultEvent::Drop {
                    sender,
                    link,
                    round,
                }),
        );
        events.extend(
            self.link_silences
                .iter()
                .map(|(&(sender, link), &from)| FaultEvent::SilenceLink { sender, link, from }),
        );
        events.extend(
            self.process_silences
                .iter()
                .map(|(&sender, &from)| FaultEvent::Crash { sender, from }),
        );
        events
    }

    /// Rebuilds a plan from events (the inverse of [`FaultPlan::events`],
    /// up to earliest-onset merging of duplicate silences).
    pub fn from_events<I: IntoIterator<Item = FaultEvent>>(events: I) -> Self {
        events
            .into_iter()
            .fold(FaultPlan::default(), |plan, event| match event {
                FaultEvent::Drop {
                    sender,
                    link,
                    round,
                } => plan.drop_message(sender, LinkId::new(link), Round::new(round)),
                FaultEvent::SilenceLink { sender, link, from } => {
                    plan.silence_link_from(sender, LinkId::new(link), Round::new(from))
                }
                FaultEvent::Crash { sender, from } => plan.crash_from(sender, Round::new(from)),
            })
    }

    /// The set of processes whose outgoing traffic the plan disturbs. In
    /// oracle accounting these count toward the fault budget alongside the
    /// Byzantine processes: a correct process with a faulted link is, to its
    /// receivers, indistinguishable from a faulty one.
    pub fn disturbed_senders(&self) -> BTreeSet<usize> {
        self.events().iter().map(FaultEvent::sender).collect()
    }

    /// Whether a message sent by `sender` on `link` in `round` traverses
    /// the transport.
    pub(crate) fn delivers(&self, round: Round, sender: ProcessIndex, link: LinkId) -> bool {
        let (s, l, r) = (sender.index(), link.label(), round.number());
        if self.drops.contains(&(s, l, r)) {
            return false;
        }
        if let Some(&from) = self.link_silences.get(&(s, l)) {
            if r >= from {
                return false;
            }
        }
        if let Some(&from) = self.process_silences.get(&s) {
            if r >= from {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lnk(l: usize) -> LinkId {
        LinkId::new(l)
    }

    fn rnd(r: u32) -> Round {
        Round::new(r)
    }

    #[test]
    fn empty_plan_delivers_everything() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        for r in 1..5 {
            for l in 1..4 {
                assert!(plan.delivers(rnd(r), ProcessIndex::new(0), lnk(l)));
            }
        }
    }

    #[test]
    fn drop_message_hits_exactly_one_round_on_one_link() {
        let plan = FaultPlan::default().drop_message(1, lnk(2), rnd(3));
        assert!(!plan.is_empty());
        // The scheduled (sender, link, round) is dropped…
        assert!(!plan.delivers(rnd(3), ProcessIndex::new(1), lnk(2)));
        // …while neighbouring rounds, links and senders are untouched.
        assert!(plan.delivers(rnd(2), ProcessIndex::new(1), lnk(2)));
        assert!(plan.delivers(rnd(4), ProcessIndex::new(1), lnk(2)));
        assert!(plan.delivers(rnd(3), ProcessIndex::new(1), lnk(1)));
        assert!(plan.delivers(rnd(3), ProcessIndex::new(0), lnk(2)));
    }

    #[test]
    fn silence_link_from_is_permanent_from_onset() {
        let plan = FaultPlan::default().silence_link_from(0, lnk(1), rnd(2));
        assert!(plan.delivers(rnd(1), ProcessIndex::new(0), lnk(1)));
        for r in 2..10 {
            assert!(
                !plan.delivers(rnd(r), ProcessIndex::new(0), lnk(1)),
                "round {r}"
            );
        }
        // Other links of the same sender stay healthy.
        assert!(plan.delivers(rnd(5), ProcessIndex::new(0), lnk(2)));
    }

    #[test]
    fn crash_from_silences_every_link_of_the_process() {
        let plan = FaultPlan::default().crash_from(2, rnd(4));
        for l in 1..=5 {
            assert!(plan.delivers(rnd(3), ProcessIndex::new(2), lnk(l)));
            assert!(!plan.delivers(rnd(4), ProcessIndex::new(2), lnk(l)));
            assert!(!plan.delivers(rnd(9), ProcessIndex::new(2), lnk(l)));
        }
        // Other processes unaffected.
        assert!(plan.delivers(rnd(9), ProcessIndex::new(1), lnk(1)));
    }

    #[test]
    fn earliest_onset_wins_when_scheduled_twice() {
        let plan = FaultPlan::default()
            .silence_link_from(0, lnk(1), rnd(5))
            .silence_link_from(0, lnk(1), rnd(3))
            .crash_from(1, rnd(6))
            .crash_from(1, rnd(2));
        assert!(!plan.delivers(rnd(3), ProcessIndex::new(0), lnk(1)));
        assert!(!plan.delivers(rnd(2), ProcessIndex::new(1), lnk(4)));
        assert!(plan.delivers(rnd(1), ProcessIndex::new(1), lnk(4)));
    }

    #[test]
    fn schedules_compose() {
        let plan = FaultPlan::default()
            .drop_message(0, lnk(1), rnd(1))
            .silence_link_from(0, lnk(2), rnd(2))
            .crash_from(1, rnd(3));
        assert!(!plan.delivers(rnd(1), ProcessIndex::new(0), lnk(1)));
        assert!(plan.delivers(rnd(1), ProcessIndex::new(0), lnk(2)));
        assert!(!plan.delivers(rnd(2), ProcessIndex::new(0), lnk(2)));
        assert!(!plan.delivers(rnd(3), ProcessIndex::new(1), lnk(1)));
    }
}
