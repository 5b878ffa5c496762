//! Transport-level fault laws: what a [`FaultPlan`] does to deliveries, at
//! the round it names and not one round off, and how a crash composes with
//! the diagnosis. Faults act below the actors, so these pin the transport
//! layer itself rather than any protocol.

use opr::prelude::*;
use opr::workload::RenamingRun;

/// A probe actor that broadcasts its own index every round and records,
/// per round, which senders' messages arrived — a transport-level
/// observation instrument for pinning fault-onset semantics.
struct Probe {
    me: usize,
    rounds: u32,
    seen: Vec<Vec<usize>>,
}

impl opr::sim::Actor for Probe {
    type Msg = OriginalId;
    type Output = Vec<Vec<usize>>;

    fn send(&mut self, _round: Round) -> opr::sim::Outbox<OriginalId> {
        opr::sim::Outbox::Broadcast(OriginalId::new(self.me as u64))
    }

    fn deliver(&mut self, _round: Round, inbox: opr::sim::Inbox<OriginalId>) {
        let mut senders: Vec<usize> = inbox.messages().map(|(_, m)| m.raw() as usize).collect();
        senders.sort_unstable();
        self.seen.push(senders);
    }

    fn output(&self) -> Option<Vec<Vec<usize>>> {
        (self.seen.len() as u32 >= self.rounds).then(|| self.seen.clone())
    }
}

/// Runs `n` probes for `rounds` rounds under `plan` and returns, for each
/// receiver, the per-round sorted list of sender indices it heard from.
fn probe_deliveries(n: usize, rounds: u32, plan: FaultPlan) -> Vec<Vec<Vec<usize>>> {
    let topology = opr::sim::Topology::seeded(n, 7);
    let actors: Vec<Box<dyn opr::sim::Actor<Msg = OriginalId, Output = Vec<Vec<usize>>>>> = (0..n)
        .map(|me| {
            Box::new(Probe {
                me,
                rounds,
                seen: Vec::new(),
            }) as Box<dyn opr::sim::Actor<Msg = OriginalId, Output = Vec<Vec<usize>>>>
        })
        .collect();
    let mut net = opr::sim::Network::new(actors, topology);
    let opts = opr::transport::ExecOptions {
        faults: plan,
        ..Default::default()
    };
    let report = opr::transport::run(&mut net, opts, rounds);
    assert!(report.completed, "probe run must complete");
    net.outputs()
        .into_iter()
        .map(|o| o.expect("every probe outputs"))
        .collect()
}

/// Regression pin for the silence-onset boundary: a link silenced "from
/// round r" delivers its message in round r−1 and drops it in round r —
/// exactly, with no off-by-one drift.
#[test]
fn link_silence_onset_boundary_is_exact() {
    let n = 5;
    let rounds = 5u32;
    let onset = 3u32;
    let sender = 0usize;
    let link = LinkId::new(2);
    // Same topology seed as `probe_deliveries` — resolve the victim (the
    // peer `sender` reaches over `link`; link labels < n are never the
    // self-loop).
    let victim = opr::sim::Topology::seeded(n, 7)
        .peer(ProcessIndex::new(sender), link)
        .index();
    assert_ne!(victim, sender);
    let plan = FaultPlan::default().silence_link_from(sender, link, Round::new(onset));
    let seen = probe_deliveries(n, rounds, plan);
    // The boundary itself, stated explicitly: round onset−1 delivers,
    // round onset drops.
    assert!(
        seen[victim][(onset - 2) as usize].contains(&sender),
        "round {} must still deliver",
        onset - 1
    );
    assert!(
        !seen[victim][(onset - 1) as usize].contains(&sender),
        "round {onset} must drop"
    );
    // And the full delivery matrix: only (victim, round ≥ onset) is
    // affected.
    for (receiver, rows) in seen.iter().enumerate() {
        for r in 1..=rounds {
            let got = rows[(r - 1) as usize].contains(&sender);
            let expect = !(receiver == victim && r >= onset);
            assert_eq!(got, expect, "receiver {receiver} round {r}");
        }
    }
}

/// The same boundary for process-wide silence: a crash "from round r"
/// delivers on every link in round r−1 and on none from round r.
#[test]
fn crash_onset_boundary_is_exact() {
    let n = 5;
    let rounds = 5u32;
    let onset = 3u32;
    let sender = 1usize;
    let plan = FaultPlan::default().crash_from(sender, Round::new(onset));
    let seen = probe_deliveries(n, rounds, plan);
    for receiver in (0..n).filter(|&r| r != sender) {
        for r in 1..=rounds {
            let got = seen[receiver][(r - 1) as usize].contains(&sender);
            assert_eq!(got, r < onset, "receiver {receiver} round {r}");
        }
    }
}

/// Crash composition: silencing a correct process at `Round::FIRST` is
/// observationally identical — to every receiver and to the oracle's
/// judged set — to removing that process from the correct set and placing
/// a silent Byzantine actor at its index. The diagnosed outcomes must
/// match exactly.
#[test]
fn crash_at_first_round_composes_as_removal_from_correct_set() {
    for regime in [Regime::LogTime, Regime::ConstantTime, Regime::TwoStep] {
        let t = 1usize;
        let n = SystemConfig::minimal_n(t, regime) + 2;
        let cfg = SystemConfig::new(n, t).unwrap();
        let seed = 13u64;
        // The index a 1-fault placement picks under this seed — the crash
        // victim, so both runs disturb the same process.
        let placement = opr::core::fault_placement(n, 1, seed);
        let victim = placement.iter().position(|&f| f).unwrap();
        let all_ids = IdDistribution::SparseRandom.generate(n, 21);
        let reduced_ids: Vec<OriginalId> = all_ids
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, _)| i != victim)
            .map(|(_, id)| id)
            .collect();
        // Run A: everyone correct, the victim crashed by the transport
        // before it can send anything.
        let crashed = RenamingRun::builder(cfg, regime)
            .correct_ids(all_ids.clone())
            .adversary(AdversarySpec::Silent, 0)
            .seed(seed)
            .faults(FaultPlan::default().crash_from(victim, Round::FIRST))
            .run_diagnosed()
            .unwrap();
        // Run B: the victim's index is a silent Byzantine process and its
        // id is gone from the correct set.
        let removed = RenamingRun::builder(cfg, regime)
            .correct_ids(reduced_ids)
            .adversary(AdversarySpec::Silent, 1)
            .seed(seed)
            .run_diagnosed()
            .unwrap();
        let tag = format!("{regime:?}");
        assert_eq!(crashed.excluded, vec![all_ids[victim]], "excluded: {tag}");
        assert_eq!(crashed.effective_faults(), 1, "effective: {tag}");
        assert_eq!(removed.effective_faults(), 1, "effective: {tag}");
        assert_eq!(crashed.degraded, removed.degraded, "diagnosis: {tag}");
        assert!(
            crashed.degraded.violations.is_empty(),
            "one fault is within budget: {tag}"
        );
    }
}
