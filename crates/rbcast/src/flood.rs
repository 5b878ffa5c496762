//! The 4-step Echo/Ready flood (Algorithm 1, steps 1–4, generalized over
//! the value type), counting word-parallel over interned id slots.

use crate::slots::{for_each_slot, IdInterner, IdSlotSet, WORD_BITS};
use opr_sim::{WireSize, COUNT_BITS, TAG_BITS};
use opr_types::LinkId;
use std::collections::BTreeSet;
use std::fmt::Debug;

/// Messages of the flood protocol.
///
/// `Init` carries exactly one value — this is what bounds a Byzantine
/// process to introducing at most one candidate per link in step 1, which
/// the `t(N−t)` counting argument of Lemma A.1 relies on. `Echo` and `Ready`
/// carry the batched sets (equivalent to the paper's one-message-per-value
/// formulation, since thresholds count *distinct links* per value), encoded
/// as interned-slot bitsets whose `Debug`, equality and wire accounting are
/// value-based — indistinguishable from the `BTreeSet` encoding they
/// replaced.
#[derive(Clone)]
pub enum FloodMsg<V> {
    /// Step 1: announce one value.
    Init(V),
    /// Step 2: echo every value received in step 1.
    Echo(IdSlotSet<V>),
    /// Steps 3 and 4: signal readiness for a set of values.
    Ready(IdSlotSet<V>),
}

// Manual impls (a derive would demand only `V: Debug`/`V: PartialEq`, but
// the slot sets decode through `V: Ord + Clone`); rendering is identical to
// what the derives produced over `BTreeSet` payloads.
impl<V: Ord + Clone + Debug> Debug for FloodMsg<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FloodMsg::Init(v) => f.debug_tuple("Init").field(v).finish(),
            FloodMsg::Echo(set) => f.debug_tuple("Echo").field(set).finish(),
            FloodMsg::Ready(set) => f.debug_tuple("Ready").field(set).finish(),
        }
    }
}

impl<V: Ord + Clone> PartialEq for FloodMsg<V> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (FloodMsg::Init(a), FloodMsg::Init(b)) => a == b,
            (FloodMsg::Echo(a), FloodMsg::Echo(b)) => a == b,
            (FloodMsg::Ready(a), FloodMsg::Ready(b)) => a == b,
            _ => false,
        }
    }
}

impl<V: Ord + Clone> Eq for FloodMsg<V> {}

impl<V: Ord + Clone + WireSize> WireSize for FloodMsg<V> {
    fn wire_bits(&self) -> u64 {
        match self {
            FloodMsg::Init(v) => TAG_BITS + v.wire_bits(),
            FloodMsg::Echo(set) | FloodMsg::Ready(set) => TAG_BITS + COUNT_BITS + set.wire_bits(),
        }
    }
}

/// Outcome of the flood at one correct process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FloodResult<V> {
    /// Values whose `Ready` reached `N − t` links by step 3 — guaranteed to
    /// include every correct value, and guaranteed to be inside every other
    /// correct process's `accepted`.
    pub timely: BTreeSet<V>,
    /// Values whose `Ready` messages (steps 3 + 4 combined) reached `N − t`
    /// distinct links. `|accepted| ≤ N + ⌊t²/(N−2t)⌋`.
    pub accepted: BTreeSet<V>,
}

impl<V> Default for FloodResult<V> {
    fn default() -> Self {
        FloodResult {
            timely: BTreeSet::new(),
            accepted: BTreeSet::new(),
        }
    }
}

/// Observation hooks for the flood's threshold arithmetic.
///
/// Every callback fires at a decision point of
/// [`deliver_observed`](EchoReadyFlood::deliver_observed) with the exact
/// counts the decision compared. Default bodies are empty, so observers
/// override only what they need and a no-op observer costs nothing.
pub trait FloodObserver<V> {
    /// Whether this observer wants callbacks at all. The flood's hot path
    /// decodes slots back to `Ord`-sorted values only to feed observers;
    /// returning `false` (as the no-op observer does, and recorder-backed
    /// observers do when no recorder is attached) skips that work entirely.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Step 1: a value was announced via `Init` on `link`.
    fn id_seen(&mut self, step: u32, link: LinkId, value: &V) {
        let _ = (step, link, value);
    }

    /// Step 2: `value` was echoed on `echoes` distinct links and compared
    /// against the `N − t` quorum; it survives iff `kept`.
    fn echo_threshold(&mut self, step: u32, value: &V, echoes: usize, quorum: usize, kept: bool) {
        let _ = (step, value, echoes, quorum, kept);
    }

    /// Step 3: `value` has `Ready` from `readies` distinct links; it is
    /// `timely` iff `readies ≥ quorum`, and this process `relayed` a `Ready`
    /// of its own iff `readies ≥ weak_quorum` and it had not already.
    #[allow(clippy::too_many_arguments)]
    fn ready_threshold(
        &mut self,
        step: u32,
        value: &V,
        readies: usize,
        quorum: usize,
        weak_quorum: usize,
        timely: bool,
        relayed: bool,
    ) {
        let _ = (step, value, readies, quorum, weak_quorum, timely, relayed);
    }

    /// Step 4: `value` has `Ready` from `readies` distinct links in total;
    /// it is `accepted` iff `readies ≥ quorum`.
    fn accept_threshold(
        &mut self,
        step: u32,
        value: &V,
        readies: usize,
        quorum: usize,
        accepted: bool,
    ) {
        let _ = (step, value, readies, quorum, accepted);
    }
}

/// The do-nothing observer plain [`deliver`](EchoReadyFlood::deliver)
/// delegates through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct NoopFloodObserver;

impl<V> FloodObserver<V> for NoopFloodObserver {
    fn is_enabled(&self) -> bool {
        false
    }
}

/// State machine for the 4-step flood, meant to be *embedded*: the owner
/// forwards [`send`](EchoReadyFlood::send) and
/// [`deliver`](EchoReadyFlood::deliver) for relative steps `1 ⋯ 4` and reads
/// the [`FloodResult`] afterwards.
///
/// All per-value state is kept as slot-indexed words and flat counters over
/// the instance's [`IdInterner`]: receiving a same-interner `Echo`/`Ready`
/// costs O(slots/64) word operations plus one counter bump per *distinct*
/// member, instead of per-value ordered-tree inserts. Values only get
/// decoded (and `Ord`-sorted) at the edges: the [`FloodResult`] sets and
/// enabled-observer callbacks.
#[derive(Clone, Debug)]
pub struct EchoReadyFlood<V> {
    n: usize,
    t: usize,
    initial: Option<V>,
    interner: IdInterner<V>,
    /// Working slots: after step 1 the values to echo; after step 2 the
    /// values to send `Ready` for; after step 3 the values to relay-`Ready`.
    working: Vec<u64>,
    /// Slots we have already sent `Ready` for (step 3), so step 4 only
    /// relays new ones.
    ready_sent: Vec<u64>,
    /// Distinct links per slot across `Ready` messages of steps 3 and 4.
    ready_counts: Vec<u16>,
    /// Per-link slots already counted into `ready_counts` (indexed by
    /// `LinkId::index`), deduplicating a link that `Ready`s the same value
    /// in both step 3 and step 4.
    ready_seen: Vec<Vec<u64>>,
    result: FloodResult<V>,
    finished: bool,
}

impl<V: Ord + Clone + Debug> EchoReadyFlood<V> {
    /// Creates a flood participant announcing `initial` (correct processes
    /// announce their own id; pass `None` to participate without
    /// announcing), with a private interner.
    pub fn new(n: usize, t: usize, initial: Option<V>) -> Self {
        EchoReadyFlood::with_interner(n, t, initial, IdInterner::new())
    }

    /// [`EchoReadyFlood::new`] over a shared per-run interner, so messages
    /// from co-participants arrive pre-interned and accumulate zero-decode.
    /// Sharing is purely the fast path — messages built against any other
    /// interner are decoded and re-interned on arrival.
    pub fn with_interner(n: usize, t: usize, initial: Option<V>, interner: IdInterner<V>) -> Self {
        EchoReadyFlood {
            n,
            t,
            initial,
            interner,
            working: Vec::new(),
            ready_sent: Vec::new(),
            ready_counts: Vec::new(),
            ready_seen: Vec::new(),
            result: FloodResult::default(),
            finished: false,
        }
    }

    /// The interner this instance's slots are relative to.
    pub fn interner(&self) -> &IdInterner<V> {
        &self.interner
    }

    /// Quorum threshold `N − t`.
    fn quorum(&self) -> usize {
        self.n - self.t
    }

    /// Relay threshold `N − 2t`.
    fn weak_quorum(&self) -> usize {
        self.n - 2 * self.t
    }

    /// The message for relative step `step ∈ 1..=4`, if any.
    ///
    /// # Panics
    ///
    /// Panics on steps outside `1..=4`.
    pub fn send(&mut self, step: u32) -> Option<FloodMsg<V>> {
        match step {
            1 => self.initial.clone().map(FloodMsg::Init),
            2 => Some(FloodMsg::Echo(IdSlotSet::from_words(
                &self.interner,
                std::mem::take(&mut self.working),
            ))),
            3 => {
                let ready = std::mem::take(&mut self.working);
                self.ready_sent = ready.clone();
                Some(FloodMsg::Ready(IdSlotSet::from_words(
                    &self.interner,
                    ready,
                )))
            }
            4 => Some(FloodMsg::Ready(IdSlotSet::from_words(
                &self.interner,
                std::mem::take(&mut self.working),
            ))),
            _ => panic!("flood has exactly 4 steps, got step {step}"),
        }
    }

    /// Consumes the messages of relative step `step ∈ 1..=4`.
    ///
    /// Takes any `(link, &msg)` iterator — typically
    /// [`Inbox::messages`](opr_sim::Inbox::messages) or a borrowed
    /// `filter_map` view over an embedding protocol's own message type — so
    /// delivery never forces a copy of the shared broadcast payloads.
    ///
    /// # Panics
    ///
    /// Panics on steps outside `1..=4`.
    pub fn deliver<'a, I>(&mut self, step: u32, inbox: I)
    where
        V: 'a,
        I: IntoIterator<Item = (LinkId, &'a FloodMsg<V>)>,
    {
        self.deliver_observed(step, inbox, &mut NoopFloodObserver);
    }

    /// [`deliver`](EchoReadyFlood::deliver), reporting every threshold
    /// decision to `observer`. The observer sees counts in the value's
    /// `Ord` order, so emission order is deterministic regardless of slot
    /// numbering.
    ///
    /// # Panics
    ///
    /// Panics on steps outside `1..=4`.
    pub fn deliver_observed<'a, I, O>(&mut self, step: u32, inbox: I, observer: &mut O)
    where
        V: 'a,
        I: IntoIterator<Item = (LinkId, &'a FloodMsg<V>)>,
        O: FloodObserver<V> + ?Sized,
    {
        match step {
            1 => {
                // Collect one announced value per distinct link.
                for (link, msg) in inbox {
                    if let FloodMsg::Init(v) = msg {
                        observer.id_seen(step, link, v);
                        set_slot(&mut self.working, self.interner.intern(v) as usize);
                    }
                }
            }
            2 => {
                // Values echoed on ≥ N−t distinct links survive. One echo
                // message per link, so no per-link dedup is needed: each
                // message bumps each member slot once.
                let mut echo_counts: Vec<u16> = Vec::new();
                for (_, msg) in inbox {
                    if let FloodMsg::Echo(set) = msg {
                        let words = set.words_in(&self.interner);
                        grow_counts(&mut echo_counts, words.len());
                        for_each_slot(&words, |slot| {
                            echo_counts[slot] += 1;
                        });
                    }
                }
                let quorum = self.quorum();
                self.working = words_where(&echo_counts, |c| c as usize >= quorum);
                if observer.is_enabled() {
                    for (v, count) in self.decoded_counts(&echo_counts) {
                        observer.echo_threshold(step, &v, count, quorum, count >= quorum);
                    }
                }
            }
            3 => {
                self.accumulate_ready(inbox);
                // Timely: Ready on ≥ N−t links already in step 3.
                let quorum = self.quorum();
                let timely_words = words_where(&self.ready_counts, |c| c as usize >= quorum);
                self.result.timely = self.decode_words(&timely_words);
                // Relay in step 4: Ready on ≥ N−2t links, not yet sent by us.
                let weak = self.weak_quorum();
                let mut working = words_where(&self.ready_counts, |c| c as usize >= weak);
                for (i, word) in working.iter_mut().enumerate() {
                    *word &= !self.ready_sent.get(i).copied().unwrap_or(0);
                }
                self.working = working;
                if observer.is_enabled() {
                    for (v, count) in self.decoded_counts(&self.ready_counts) {
                        observer.ready_threshold(
                            step,
                            &v,
                            count,
                            quorum,
                            weak,
                            self.result.timely.contains(&v),
                            count >= weak && !self.result_slot_in(&self.ready_sent, &v),
                        );
                    }
                }
            }
            4 => {
                self.accumulate_ready(inbox);
                let quorum = self.quorum();
                let accepted_words = words_where(&self.ready_counts, |c| c as usize >= quorum);
                self.result.accepted = self.decode_words(&accepted_words);
                if observer.is_enabled() {
                    for (v, count) in self.decoded_counts(&self.ready_counts) {
                        observer.accept_threshold(
                            step,
                            &v,
                            count,
                            quorum,
                            self.result.accepted.contains(&v),
                        );
                    }
                }
                self.finished = true;
            }
            _ => panic!("flood has exactly 4 steps, got step {step}"),
        }
    }

    /// Folds `Ready` messages into the per-slot distinct-link counters:
    /// `new = incoming & !seen[link]` masks out slots this link already
    /// `Ready`ed (across steps 3 and 4), then a `trailing_zeros` walk over
    /// `new` bumps each newly-covered slot once.
    fn accumulate_ready<'a, I>(&mut self, inbox: I)
    where
        V: 'a,
        I: IntoIterator<Item = (LinkId, &'a FloodMsg<V>)>,
    {
        for (link, msg) in inbox {
            if let FloodMsg::Ready(set) = msg {
                let words = set.words_in(&self.interner);
                grow_counts(&mut self.ready_counts, words.len());
                if self.ready_seen.len() <= link.index() {
                    self.ready_seen.resize(link.index() + 1, Vec::new());
                }
                let seen = &mut self.ready_seen[link.index()];
                if seen.len() < words.len() {
                    seen.resize(words.len(), 0);
                }
                for (i, &word) in words.iter().enumerate() {
                    let mut new = word & !seen[i];
                    seen[i] |= new;
                    while new != 0 {
                        let slot = i * WORD_BITS + new.trailing_zeros() as usize;
                        self.ready_counts[slot] += 1;
                        new &= new - 1;
                    }
                }
            }
        }
    }

    /// Decodes a word bitset into the value-ordered set the results expose.
    fn decode_words(&self, words: &[u64]) -> BTreeSet<V> {
        IdSlotSet::from_words(&self.interner, words.to_vec())
            .values_sorted()
            .into_iter()
            .collect()
    }

    /// The `(value, count)` pairs for every slot with a nonzero count, in
    /// value `Ord` order — what observers iterate, decoupling their
    /// deterministic emission order from nondeterministic slot numbering.
    fn decoded_counts(&self, counts: &[u16]) -> Vec<(V, usize)> {
        let mut pairs: Vec<(V, usize)> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(slot, &c)| (self.interner.value_of(slot as u32), c as usize))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs
    }

    /// Whether `v`'s slot bit is set in `words`.
    fn result_slot_in(&self, words: &[u64], v: &V) -> bool {
        self.interner.lookup(v).is_some_and(|slot| {
            let slot = slot as usize;
            words
                .get(slot / WORD_BITS)
                .is_some_and(|w| w & (1u64 << (slot % WORD_BITS)) != 0)
        })
    }

    /// The result, once step 4 has been delivered.
    pub fn result(&self) -> Option<&FloodResult<V>> {
        self.finished.then_some(&self.result)
    }
}

/// Sets bit `slot`, growing the word vector as needed.
fn set_slot(words: &mut Vec<u64>, slot: usize) {
    let word = slot / WORD_BITS;
    if word >= words.len() {
        words.resize(word + 1, 0);
    }
    words[word] |= 1u64 << (slot % WORD_BITS);
}

/// Grows `counts` to cover every slot addressable by `words` bitset words.
fn grow_counts(counts: &mut Vec<u16>, words: usize) {
    let needed = words * WORD_BITS;
    if counts.len() < needed {
        counts.resize(needed, 0);
    }
}

/// The linear quorum scan: the bitset of slots whose count satisfies `keep`.
fn words_where(counts: &[u16], keep: impl Fn(u16) -> bool) -> Vec<u64> {
    let mut words = vec![0u64; counts.len().div_ceil(WORD_BITS)];
    for (slot, &count) in counts.iter().enumerate() {
        if count > 0 && keep(count) {
            words[slot / WORD_BITS] |= 1u64 << (slot % WORD_BITS);
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_sim::{Actor, Inbox, Network, Outbox, Topology, ID_BITS};
    use opr_types::Round;

    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Val(u64);
    impl WireSize for Val {
        fn wire_bits(&self) -> u64 {
            ID_BITS
        }
    }

    /// Standalone [`Actor`] wrapper around [`EchoReadyFlood`]: runs the
    /// four steps starting at round 1 and outputs the [`FloodResult`].
    struct FloodActor<V> {
        flood: EchoReadyFlood<V>,
    }

    impl<V: Ord + Clone + Debug> FloodActor<V> {
        fn new(n: usize, t: usize, initial: Option<V>) -> Self {
            FloodActor {
                flood: EchoReadyFlood::new(n, t, initial),
            }
        }
    }

    impl<V: Ord + Clone + Debug + WireSize + Send + Sync> Actor for FloodActor<V> {
        type Msg = FloodMsg<V>;
        type Output = FloodResult<V>;

        fn send(&mut self, round: Round) -> Outbox<FloodMsg<V>> {
            if round.number() <= 4 {
                match self.flood.send(round.number()) {
                    Some(msg) => Outbox::Broadcast(msg),
                    None => Outbox::Silent,
                }
            } else {
                Outbox::Silent
            }
        }

        fn deliver(&mut self, round: Round, inbox: Inbox<FloodMsg<V>>) {
            if round.number() <= 4 {
                self.flood.deliver(round.number(), inbox.messages());
            }
        }

        fn output(&self) -> Option<FloodResult<V>> {
            self.flood.result().cloned()
        }
    }

    type Net = Network<FloodMsg<Val>, FloodResult<Val>>;

    fn flood_net(n: usize, t: usize, values: &[u64], faulty: usize, seed: u64) -> Net {
        // First `faulty` actors are silent Byzantine placeholders (announce
        // nothing, echo nothing).
        let mut actors: Vec<Box<dyn Actor<Msg = FloodMsg<Val>, Output = FloodResult<Val>>>> =
            Vec::new();
        let mut correct = Vec::new();
        for i in 0..faulty {
            struct Silent;
            impl Actor for Silent {
                type Msg = FloodMsg<Val>;
                type Output = FloodResult<Val>;
                fn send(&mut self, _r: Round) -> Outbox<FloodMsg<Val>> {
                    Outbox::Silent
                }
                fn deliver(&mut self, _r: Round, _i: Inbox<FloodMsg<Val>>) {}
                fn output(&self) -> Option<FloodResult<Val>> {
                    None
                }
            }
            let _ = i;
            actors.push(Box::new(Silent));
            correct.push(false);
        }
        for &v in values {
            actors.push(Box::new(FloodActor::new(n, t, Some(Val(v)))));
            correct.push(true);
        }
        assert_eq!(actors.len(), n);
        Network::with_faults(actors, correct, Topology::seeded(n, seed))
    }

    #[test]
    fn all_correct_values_are_timely_everywhere() {
        let (n, t) = (7usize, 2usize);
        let values = [10, 20, 30, 40, 50, 60, 70];
        let mut net = flood_net(n, t, &values, 0, 3);
        assert!(net.run(4).completed);
        for i in 0..n {
            let res = net.output_of(i).unwrap();
            assert_eq!(res.timely.len(), n);
            assert_eq!(res.accepted.len(), n);
        }
    }

    #[test]
    fn silent_byzantine_processes_do_not_block_correct_values() {
        let (n, t) = (7usize, 2usize);
        let values = [10, 20, 30, 40, 50];
        let mut net = flood_net(n, t, &values, t, 11);
        net.run(4);
        for i in t..n {
            let res = net.output_of(i).unwrap();
            // Lemma IV.2: every correct value is timely at every correct
            // process.
            for v in values {
                assert!(res.timely.contains(&Val(v)), "p{i} missing {v}");
            }
            // Lemma IV.1 ⊆ relation.
            assert!(res.timely.is_subset(&res.accepted));
        }
    }

    #[test]
    fn timely_somewhere_implies_accepted_everywhere() {
        let (n, t) = (10usize, 3usize);
        let values = [1, 2, 3, 4, 5, 6, 7];
        let mut net = flood_net(n, t, &values, t, 7);
        net.run(4);
        let results: Vec<FloodResult<Val>> = (t..n).map(|i| net.output_of(i).unwrap()).collect();
        let timely_union: BTreeSet<Val> = results
            .iter()
            .flat_map(|r| r.timely.iter().copied())
            .collect();
        for (i, res) in results.iter().enumerate() {
            assert!(
                timely_union.is_subset(&res.accepted),
                "correct process {i}: union of timely sets must be ⊆ accepted"
            );
        }
    }

    #[test]
    fn accepted_is_bounded_even_with_silent_byzantine() {
        let (n, t) = (10usize, 3usize);
        let values = [1, 2, 3, 4, 5, 6, 7];
        let mut net = flood_net(n, t, &values, t, 9);
        net.run(4);
        let bound = n + (t * t) / (n - 2 * t);
        for i in t..n {
            let res = net.output_of(i).unwrap();
            assert!(res.accepted.len() <= bound);
        }
    }

    #[test]
    fn non_announcing_correct_process_still_learns() {
        let n = 4;
        let mut actors: Vec<Box<dyn Actor<Msg = FloodMsg<Val>, Output = FloodResult<Val>>>> =
            vec![Box::new(FloodActor::new(n, 1, None))];
        for v in [5, 6, 7] {
            actors.push(Box::new(FloodActor::new(n, 1, Some(Val(v)))));
        }
        let mut net: Net = Network::new(actors, Topology::canonical(n));
        assert!(net.run(4).completed);
        let res = net.output_of(0).unwrap();
        assert_eq!(res.timely.len(), 3);
    }

    #[test]
    #[should_panic(expected = "exactly 4 steps")]
    fn rejects_out_of_range_step() {
        let mut flood: EchoReadyFlood<Val> = EchoReadyFlood::new(4, 1, None);
        let _ = flood.send(5);
    }

    #[test]
    fn result_unavailable_before_step_4() {
        let flood: EchoReadyFlood<Val> = EchoReadyFlood::new(4, 1, Some(Val(1)));
        assert!(flood.result().is_none());
    }

    #[derive(Default)]
    struct CountingObserver {
        seen: usize,
        echo: Vec<(u64, usize, bool)>,
        ready: Vec<(u64, usize, bool, bool)>,
        accept: Vec<(u64, usize, bool)>,
    }

    impl FloodObserver<Val> for CountingObserver {
        fn id_seen(&mut self, _step: u32, _link: LinkId, _value: &Val) {
            self.seen += 1;
        }
        fn echo_threshold(&mut self, _s: u32, v: &Val, echoes: usize, _q: usize, kept: bool) {
            self.echo.push((v.0, echoes, kept));
        }
        fn ready_threshold(
            &mut self,
            _s: u32,
            v: &Val,
            readies: usize,
            _q: usize,
            _w: usize,
            timely: bool,
            relayed: bool,
        ) {
            self.ready.push((v.0, readies, timely, relayed));
        }
        fn accept_threshold(
            &mut self,
            _s: u32,
            v: &Val,
            readies: usize,
            _q: usize,
            accepted: bool,
        ) {
            self.accept.push((v.0, readies, accepted));
        }
    }

    #[test]
    fn observer_sees_every_threshold_decision() {
        // Drive one flood participant by hand through all four steps in a
        // 4-process system with t = 1 where everyone behaves. Each
        // participant gets a *private* interner, so delivery also exercises
        // the foreign-interner rebase path.
        let n = 4usize;
        let vals = [Val(1), Val(2), Val(3), Val(4)];
        let mut floods: Vec<EchoReadyFlood<Val>> = (0..n)
            .map(|i| EchoReadyFlood::new(n, 1, Some(vals[i])))
            .collect();
        let mut obs = CountingObserver::default();
        for step in 1..=4u32 {
            let outgoing: Vec<FloodMsg<Val>> =
                floods.iter_mut().map(|f| f.send(step).unwrap()).collect();
            let inbox: Vec<(LinkId, FloodMsg<Val>)> = outgoing
                .iter()
                .enumerate()
                .map(|(i, m)| (LinkId::new(i + 1), m.clone()))
                .collect();
            for (i, flood) in floods.iter_mut().enumerate() {
                let view = inbox.iter().map(|(l, m)| (*l, m));
                if i == 0 {
                    flood.deliver_observed(step, view, &mut obs);
                } else {
                    flood.deliver(step, view);
                }
            }
        }
        // All four announcements seen, every value judged at each threshold
        // with the full quorum count, and everything admitted.
        assert_eq!(obs.seen, 4);
        assert_eq!(
            obs.echo,
            vec![(1, 4, true), (2, 4, true), (3, 4, true), (4, 4, true)]
        );
        assert_eq!(obs.ready.len(), 4);
        assert!(obs
            .ready
            .iter()
            .all(|&(_, r, timely, relayed)| r == 4 && timely && !relayed));
        assert_eq!(obs.accept.len(), 4);
        assert!(obs
            .accept
            .iter()
            .all(|&(_, r, accepted)| r == 4 && accepted));
        let result = floods[0].result().unwrap();
        assert_eq!(result.timely.len(), 4);
    }

    #[test]
    fn message_sizes_scale_with_set_size() {
        let interner = IdInterner::new();
        let small = FloodMsg::Echo(IdSlotSet::from_values(&interner, [Val(1)]));
        let large = FloodMsg::Echo(IdSlotSet::from_values(&interner, (0..10).map(Val)));
        assert_eq!(large.wire_bits() - small.wire_bits(), 9 * ID_BITS);
        let init = FloodMsg::Init(Val(1));
        assert!(init.wire_bits() < small.wire_bits() + ID_BITS);
    }

    #[test]
    fn shared_interner_run_matches_private_interners() {
        // The same 4-process all-correct run, once with per-actor private
        // interners (rebase path) and once over a shared registry (borrow
        // path) — the protocol outcome cannot tell the difference.
        let n = 4usize;
        let vals = [Val(4), Val(2), Val(9), Val(1)];
        let run = |interners: Vec<IdInterner<Val>>| {
            let mut floods: Vec<EchoReadyFlood<Val>> = interners
                .into_iter()
                .enumerate()
                .map(|(i, interner)| EchoReadyFlood::with_interner(n, 1, Some(vals[i]), interner))
                .collect();
            for step in 1..=4u32 {
                let outgoing: Vec<FloodMsg<Val>> =
                    floods.iter_mut().map(|f| f.send(step).unwrap()).collect();
                let inbox: Vec<(LinkId, FloodMsg<Val>)> = outgoing
                    .iter()
                    .enumerate()
                    .map(|(i, m)| (LinkId::new(i + 1), m.clone()))
                    .collect();
                for flood in floods.iter_mut() {
                    flood.deliver(step, inbox.iter().map(|(l, m)| (*l, m)));
                }
            }
            floods
                .iter()
                .map(|f| f.result().unwrap().clone())
                .collect::<Vec<_>>()
        };
        let shared = IdInterner::new();
        let shared_results = run((0..n).map(|_| shared.clone()).collect());
        let private_results = run((0..n).map(|_| IdInterner::new()).collect());
        assert_eq!(shared_results, private_results);
        assert_eq!(shared_results[0].timely.len(), 4);
    }
}
