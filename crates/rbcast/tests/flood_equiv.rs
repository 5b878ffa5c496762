//! Differential properties: the word-parallel slot-bitset flood
//! (`EchoReadyFlood`) against the seed set-based accumulation (`SetFlood`)
//! on identical, adversarially-shaped inputs — same `FloodResult`, same
//! observer decision sequence, same outgoing payloads, same wire accounting.

mod set_flood;

use opr_rbcast::{EchoReadyFlood, FloodMsg, FloodObserver, IdInterner, IdSlotSet};
use opr_sim::{WireSize, COUNT_BITS, ID_BITS, TAG_BITS};
use opr_types::LinkId;
use proptest::prelude::*;
use set_flood::SetFlood;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Val(u32);

impl WireSize for Val {
    fn wire_bits(&self) -> u64 {
        ID_BITS
    }
}

/// Every observer callback, flattened to a comparable event.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Event {
    Seen(u32, LinkId, Val),
    Echo(u32, Val, usize, usize, bool),
    Ready(u32, Val, usize, usize, usize, bool, bool),
    Accept(u32, Val, usize, usize, bool),
}

#[derive(Default)]
struct Recorder(Vec<Event>);

impl FloodObserver<Val> for Recorder {
    fn id_seen(&mut self, step: u32, link: LinkId, value: &Val) {
        self.0.push(Event::Seen(step, link, *value));
    }
    fn echo_threshold(&mut self, step: u32, v: &Val, echoes: usize, quorum: usize, kept: bool) {
        self.0.push(Event::Echo(step, *v, echoes, quorum, kept));
    }
    fn ready_threshold(
        &mut self,
        step: u32,
        v: &Val,
        readies: usize,
        quorum: usize,
        weak: usize,
        timely: bool,
        relayed: bool,
    ) {
        self.0.push(Event::Ready(
            step, *v, readies, quorum, weak, timely, relayed,
        ));
    }
    fn accept_threshold(&mut self, step: u32, v: &Val, readies: usize, quorum: usize, acc: bool) {
        self.0.push(Event::Accept(step, *v, readies, quorum, acc));
    }
}

/// One adversarial message as generated data: which link sends it, what
/// kind it claims to be, and the raw (possibly duplicated) value list.
#[derive(Clone, Debug)]
struct RawMsg {
    link: usize,
    kind: u8,
    values: Vec<u32>,
    /// Build the slot set against the receiver's interner (`true`, the
    /// shared fast path) or a fresh foreign one (`false`, the rebase path —
    /// values the receiver has never interned arrive this way).
    shared: bool,
}

/// Values of steps 1–3 lie in `0..LATE`, so by step 4 a receiver has
/// interned up to `LATE` of them — sets of two 64-slot words. Every step-4
/// message adds values of `LATE..DOMAIN`, first seen there: they take
/// slots past the ones interned so far, up into a third word, so a link's
/// step-4 `Ready` can be wider than its step-3 one (about a quarter of the
/// cases have such a link), on the shared path and through a foreign
/// interner's rebase alike.
const LATE: u32 = 128;
const DOMAIN: u32 = 200;

fn raw_msg(n: usize, late: bool) -> impl Strategy<Value = RawMsg> {
    (
        0..n,
        0u8..3,
        proptest::collection::vec(0u32..LATE, 0..40),
        proptest::collection::vec(LATE..DOMAIN, 1..16),
        0u8..2,
    )
        .prop_map(move |(link, kind, mut values, fresh, shared)| {
            if late {
                values.extend(fresh);
            }
            RawMsg {
                link,
                kind,
                values,
                shared: shared == 1,
            }
        })
}

/// A full 4-step inbox schedule.
fn schedule(n: usize) -> impl Strategy<Value = Vec<Vec<RawMsg>>> {
    (
        proptest::collection::vec(proptest::collection::vec(raw_msg(n, false), 0..12), 3..4),
        proptest::collection::vec(raw_msg(n, true), 0..12),
    )
        .prop_map(|(mut steps, last)| {
            steps.push(last);
            steps
        })
}

fn materialize(raw: &RawMsg, receiver: &IdInterner<Val>) -> (LinkId, FloodMsg<Val>) {
    let link = LinkId::new(raw.link + 1);
    let vals: Vec<Val> = raw.values.iter().map(|&v| Val(v)).collect();
    let foreign = IdInterner::new();
    let interner = if raw.shared { receiver } else { &foreign };
    let msg = match raw.kind {
        0 => FloodMsg::Init(vals.first().copied().unwrap_or(Val(0))),
        1 => FloodMsg::Echo(IdSlotSet::from_values(interner, vals)),
        _ => FloodMsg::Ready(IdSlotSet::from_values(interner, vals)),
    };
    (link, msg)
}

proptest! {
    /// The tentpole's semantic contract: for any adversarial Echo/Ready
    /// payload schedule — wrong-step message kinds, duplicate values,
    /// values the receiver has never interned, foreign-interner encodings,
    /// sets spanning several words and a step-4 `Ready` wider than the same
    /// link's step-3 one —
    /// the bitset flood and the seed set flood produce the same outgoing
    /// value sets, the same observer event sequence, and the same final
    /// `FloodResult`. The same flood restarted on its cleared interner
    /// then runs the schedule again exactly as it did new, and every message
    /// it sent the first time and someone still holds keeps its words.
    #[test]
    fn bitset_flood_matches_set_flood(
        (n, t) in (4usize..9).prop_flat_map(|n| (Just(n), 1usize..=(n - 1) / 3)),
        initial in 0u32..LATE + 1,
        steps in schedule(8),
    ) {
        // `LATE` stands for "no announcement".
        let initial = (initial < LATE).then_some(Val(initial));
        let mut fast = EchoReadyFlood::with_interner(n, t, initial, IdInterner::new());
        let mut slow = SetFlood::new(n, t, initial);
        let mut slow_obs = Recorder::default();
        let mut run = |fast: &mut EchoReadyFlood<Val>, slow: Option<&mut SetFlood<Val>>| {
            let mut slow = slow;
            let (mut fast_obs, mut sent) = (Recorder::default(), Vec::new());
            for (i, raws) in steps.iter().enumerate() {
                let step = i as u32 + 1;
                // Outgoing payloads must carry the same value sets.
                let msg = fast.send(step);
                let sent_values: Vec<Val> = match &msg {
                    Some(FloodMsg::Init(v)) => vec![*v],
                    Some(FloodMsg::Echo(s)) | Some(FloodMsg::Ready(s)) => s.values_sorted(),
                    None => Vec::new(),
                };
                if let Some(slow) = slow.as_deref_mut() {
                    prop_assert_eq!(&sent_values, &slow.send_values(step));
                }
                sent.push(msg);
                let inbox: Vec<(LinkId, FloodMsg<Val>)> = raws
                    .iter()
                    .map(|raw| materialize(raw, fast.interner()))
                    .collect();
                fast.deliver_observed(step, inbox.iter().map(|(l, m)| (*l, m)), &mut fast_obs);
                if let Some(slow) = slow.as_deref_mut() {
                    slow.deliver_observed(step, inbox.iter().map(|(l, m)| (*l, m)), &mut slow_obs);
                    prop_assert_eq!(&fast_obs.0, &slow_obs.0, "diverged at step {}", step);
                }
            }
            (fast_obs.0, sent, fast.result().cloned())
        };
        let (events, held, result) = run(&mut fast, Some(&mut slow));
        prop_assert!(result.is_some());
        prop_assert_eq!(&result, &slow.result());
        prop_assert_eq!(fast.result(), result.as_ref(), "the result stays until a restart");
        let words = |sent: &[Option<FloodMsg<Val>>]| -> Vec<Vec<u64>> {
            sent.iter()
                .map(|msg| match msg {
                    Some(FloodMsg::Echo(s)) | Some(FloodMsg::Ready(s)) => s.words().to_vec(),
                    _ => Vec::new(),
                })
                .collect()
        };
        let held_words = words(&held);
        fast.interner().clear();
        fast.restart(n, t, initial);
        prop_assert!(fast.result().is_none(), "a restart clears the result");
        let (again, _, result_again) = run(&mut fast, None);
        prop_assert_eq!(again, events);
        prop_assert_eq!(result_again, result);
        prop_assert_eq!(words(&held), held_words, "a held message changed");
    }

    /// Wire-accounting invariant: a bitset `FloodMsg` reports exactly the
    /// bits of the seed per-id encoding, `TAG + COUNT + Σ id.wire_bits()`,
    /// for any id set — slot numbering and word layout never leak into
    /// metrics.
    #[test]
    fn bitset_wire_bits_equal_seed_per_id_encoding(
        ids in proptest::collection::btree_set(0u32..2000, 0..80),
        ready in 0u8..2,
        shared_offset in 0u32..50,
    ) {
        let ready = ready == 1;
        // Interners with different slot histories must report identical
        // sizes for the same value set.
        let fresh = IdInterner::new();
        let warmed = IdInterner::new();
        for pre in 0..shared_offset {
            warmed.intern(&Val(pre * 37));
        }
        let expected: u64 =
            TAG_BITS + COUNT_BITS + ids.iter().map(|_| ID_BITS).sum::<u64>();
        for interner in [&fresh, &warmed] {
            let set = IdSlotSet::from_values(interner, ids.iter().map(|&v| Val(v)));
            let msg = if ready {
                FloodMsg::Ready(set)
            } else {
                FloodMsg::Echo(set)
            };
            prop_assert_eq!(msg.wire_bits(), expected);
        }
    }
}
