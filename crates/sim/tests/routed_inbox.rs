//! The routed inbox is the sorted inbox: whatever the senders do, every
//! receiver reads what a naive model delivers — one entry pushed per routed
//! link in routing order, then stably sorted by the receiver's label — on
//! both schedules, with the delivery filter called in `(sender, link)`
//! order and the trace recorded in routing order.

use opr_sim::{Actor, Inbox, Network, Outbox, Topology, TraceEvent, WireSize};
use opr_types::{LinkId, ProcessIndex, Round};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// A payload whose wire size varies with its value, so a cap splits a
/// round's payloads.
#[derive(Clone, Debug)]
struct Tagged(u64);
impl WireSize for Tagged {
    fn wire_bits(&self) -> u64 {
        8 * (self.0 % 7)
    }
}

/// One sender's outbox in one round.
#[derive(Clone, Debug)]
enum Plan {
    Silent,
    Broadcast(u64),
    /// `(label, value)` entries, duplicate and out-of-range labels included.
    Multicast(Vec<(usize, u64)>),
}

/// `script[round][sender]`.
type Script = Vec<Vec<Plan>>;

/// What one receiver read in one round: `len()` and the `(label, value)`
/// sequence.
type Read = (usize, Vec<(usize, u64)>);

/// Plays its sender's column of the script and records every inbox.
struct Scripted {
    index: usize,
    script: Arc<Script>,
    read: Vec<Read>,
}

impl Actor for Scripted {
    type Msg = Tagged;
    type Output = Vec<Read>;
    fn send(&mut self, round: Round) -> Outbox<Tagged> {
        match &self.script[round.number() as usize - 1][self.index] {
            Plan::Silent => Outbox::Silent,
            Plan::Broadcast(v) => Outbox::Broadcast(Tagged(*v)),
            Plan::Multicast(entries) => Outbox::Multicast(
                entries
                    .iter()
                    .map(|&(l, v)| (LinkId::new(l), Tagged(v)))
                    .collect(),
            ),
        }
    }
    fn deliver(&mut self, _round: Round, inbox: Inbox<Tagged>) {
        let entries = inbox.messages().map(|(l, m)| (l.label(), m.0)).collect();
        self.read.push((inbox.len(), entries));
    }
    fn output(&self) -> Option<Vec<Read>> {
        Some(self.read.clone())
    }
}

/// The delivery filter both the network and the model apply.
fn passes(salt: u64, round: Round, sender: usize, link: usize) -> bool {
    let key = (u64::from(round.number()) << 40) ^ ((sender as u64) << 20) ^ link as u64;
    (key ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 62 != 0
}

/// One case: the system, the senders' script and the transport knobs.
#[derive(Debug)]
struct Case {
    n: usize,
    topology_seed: u64,
    script: Script,
    filter: Option<u64>,
    cap: Option<u64>,
    trace: bool,
}

fn draw(n: usize, seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let rounds = rng.gen_range(3..=5);
    let mut value = 0u64;
    let mut next = || {
        value += 1;
        value
    };
    let script = (0..rounds)
        .map(|_| {
            (0..n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => Plan::Silent,
                    1 => Plan::Broadcast(next()),
                    _ => Plan::Multicast(
                        (0..rng.gen_range(0..=n + 2))
                            .map(|_| (rng.gen_range(1..=n + 2), next()))
                            .collect(),
                    ),
                })
                .collect()
        })
        .collect();
    Case {
        n,
        topology_seed: rng.gen_range(0..1000),
        script,
        filter: rng.gen_bool(0.5).then(|| rng.gen_range(0..u64::MAX)),
        cap: rng.gen_bool(0.5).then(|| rng.gen_range(0..=48)),
        trace: rng.gen_bool(0.5),
    }
}

/// Everything a run is compared on: what every receiver read per round,
/// the filter's calls in order, and the trace.
type Observed = (Vec<Vec<Read>>, Vec<(Round, usize, usize)>, Vec<TraceEvent>);

fn run(case: &Case, workers: Option<usize>) -> Observed {
    let script = Arc::new(case.script.clone());
    let actors: Vec<Box<dyn Actor<Msg = Tagged, Output = Vec<Read>>>> = (0..case.n)
        .map(|index| {
            Box::new(Scripted {
                index,
                script: Arc::clone(&script),
                read: Vec::new(),
            }) as _
        })
        .collect();
    let mut net = Network::new(actors, Topology::seeded(case.n, case.topology_seed));
    net.set_payload_cap(case.cap);
    let calls = Arc::new(Mutex::new(Vec::new()));
    if let Some(salt) = case.filter {
        let calls = Arc::clone(&calls);
        net.set_delivery_filter(Box::new(move |round, sender, link| {
            calls
                .lock()
                .unwrap()
                .push((round, sender.index(), link.label()));
            passes(salt, round, sender.index(), link.label())
        }));
    }
    if case.trace {
        net.enable_trace(usize::MAX);
    }
    for _ in &case.script {
        match workers {
            None => net.step(),
            Some(w) => net.step_on(w),
        }
    }
    let reads = net.outputs().into_iter().map(Option::unwrap).collect();
    let (_, trace, _) = net.take_artifacts();
    let calls = calls.lock().unwrap().clone();
    (
        reads,
        calls,
        trace.map_or_else(Vec::new, |t| t.events().to_vec()),
    )
}

/// The model: push per routed link in routing order, then stable-sort by
/// the receiver's label.
fn model(case: &Case) -> Observed {
    let n = case.n;
    let topology = Topology::seeded(n, case.topology_seed);
    let mut reads = vec![Vec::new(); n];
    let mut calls = Vec::new();
    let mut trace = Vec::new();
    for (r, plans) in case.script.iter().enumerate() {
        let round = Round::new(r as u32 + 1);
        let mut inboxes = vec![Vec::new(); n];
        for (s, plan) in plans.iter().enumerate() {
            let links: Vec<(usize, u64)> = match plan {
                Plan::Silent => Vec::new(),
                Plan::Broadcast(v) => (1..=n).map(|l| (l, *v)).collect(),
                Plan::Multicast(entries) => {
                    let mut seen = vec![false; n + 1];
                    entries
                        .iter()
                        .copied()
                        .filter(|&(l, _)| l <= n && !std::mem::replace(&mut seen[l], true))
                        .collect()
                }
            };
            for (l, v) in links {
                if case.cap.is_some_and(|cap| Tagged(v).wire_bits() > cap) {
                    continue;
                }
                if let Some(salt) = case.filter {
                    calls.push((round, s, l));
                    if !passes(salt, round, s, l) {
                        continue;
                    }
                }
                let sender = ProcessIndex::new(s);
                let receiver = topology.peer(sender, LinkId::new(l));
                let label = topology.incoming_label(receiver, sender);
                if case.trace {
                    trace.push(TraceEvent {
                        round,
                        sender,
                        receiver,
                        link: label,
                        message: format!("{:?}", Tagged(v)),
                    });
                }
                inboxes[receiver.index()].push((label.label(), v));
            }
        }
        for (receiver, mut inbox) in inboxes.into_iter().enumerate() {
            inbox.sort_by_key(|&(label, _)| label);
            reads[receiver].push((inbox.len(), inbox));
        }
    }
    (reads, calls, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_routed_inbox_is_the_sorted_inbox(n in 1usize..=12, seed in 0u64..1_000_000) {
        let case = draw(n, seed);
        let expected = model(&case);
        prop_assert_eq!(&run(&case, None), &expected, "step: {:?}", case);
        prop_assert_eq!(&run(&case, Some(2)), &expected, "step_on(2): {:?}", case);
    }
}
