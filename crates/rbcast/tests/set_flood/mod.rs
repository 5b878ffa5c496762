//! The seed set-based flood accumulation, kept as a differential oracle.
//!
//! [`SetFlood`] is the pre-interning implementation of the 4-step flood:
//! `BTreeSet` working sets and `BTreeMap<V, BTreeSet<LinkId>>` link
//! accumulation, exactly as the repository shipped it before the slot-bitset
//! core. It consumes the same [`FloodMsg`] payloads (decoding each bitset
//! back to values, as any non-interning receiver would) and drives the same
//! [`FloodObserver`] callbacks, so the properties in `flood_equiv.rs` can
//! hold the word-parallel [`EchoReadyFlood`](opr_rbcast::EchoReadyFlood) to
//! the old semantics decision by decision.

use opr_rbcast::{FloodMsg, FloodObserver, FloodResult};
use opr_types::LinkId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

/// The seed flood state machine: per-value ordered-tree accumulation.
#[derive(Clone, Debug)]
pub(crate) struct SetFlood<V> {
    n: usize,
    t: usize,
    initial: Option<V>,
    working: BTreeSet<V>,
    ready_sent: BTreeSet<V>,
    ready_links: BTreeMap<V, BTreeSet<LinkId>>,
    result: FloodResult<V>,
    finished: bool,
}

impl<V: Ord + Clone + Debug> SetFlood<V> {
    /// Creates a flood participant announcing `initial`; see
    /// [`EchoReadyFlood::new`](opr_rbcast::EchoReadyFlood::new).
    pub(crate) fn new(n: usize, t: usize, initial: Option<V>) -> Self {
        SetFlood {
            n,
            t,
            initial,
            working: BTreeSet::new(),
            ready_sent: BTreeSet::new(),
            ready_links: BTreeMap::new(),
            result: FloodResult::default(),
            finished: false,
        }
    }

    fn quorum(&self) -> usize {
        self.n - self.t
    }

    fn weak_quorum(&self) -> usize {
        self.n - 2 * self.t
    }

    /// The values this participant would send in `step ∈ 1..=4`: the single
    /// `Init` value for step 1, the `Echo`/`Ready` set for steps 2–4.
    ///
    /// # Panics
    ///
    /// Panics on steps outside `1..=4`.
    pub(crate) fn send_values(&mut self, step: u32) -> Vec<V> {
        match step {
            1 => self.initial.clone().into_iter().collect(),
            2 => std::mem::take(&mut self.working).into_iter().collect(),
            3 => {
                let ready = std::mem::take(&mut self.working);
                self.ready_sent = ready.clone();
                ready.into_iter().collect()
            }
            4 => std::mem::take(&mut self.working).into_iter().collect(),
            _ => panic!("flood has exactly 4 steps, got step {step}"),
        }
    }

    /// Consumes the messages of step `step ∈ 1..=4` with the seed per-value
    /// tree accumulation, firing the same observer callbacks in the same
    /// (value `Ord`) order the word-parallel implementation must reproduce.
    ///
    /// # Panics
    ///
    /// Panics on steps outside `1..=4`.
    pub(crate) fn deliver_observed<'a, I, O>(&mut self, step: u32, inbox: I, observer: &mut O)
    where
        V: 'a,
        I: IntoIterator<Item = (LinkId, &'a FloodMsg<V>)>,
        O: FloodObserver<V> + ?Sized,
    {
        match step {
            1 => {
                for (link, msg) in inbox {
                    if let FloodMsg::Init(v) = msg {
                        observer.id_seen(step, link, v);
                        self.working.insert(v.clone());
                    }
                }
            }
            2 => {
                let mut echo_links: BTreeMap<V, usize> = BTreeMap::new();
                for (_, msg) in inbox {
                    if let FloodMsg::Echo(set) = msg {
                        for v in set.values_sorted() {
                            *echo_links.entry(v).or_insert(0) += 1;
                        }
                    }
                }
                let quorum = self.quorum();
                self.working = echo_links
                    .into_iter()
                    .filter(|(v, links)| {
                        let kept = *links >= quorum;
                        observer.echo_threshold(step, v, *links, quorum, kept);
                        kept
                    })
                    .map(|(v, _)| v)
                    .collect();
            }
            3 => {
                self.accumulate_ready(inbox);
                let quorum = self.quorum();
                self.result.timely = self
                    .ready_links
                    .iter()
                    .filter(|(_, links)| links.len() >= quorum)
                    .map(|(v, _)| v.clone())
                    .collect();
                let weak = self.weak_quorum();
                self.working = self
                    .ready_links
                    .iter()
                    .filter(|(v, links)| links.len() >= weak && !self.ready_sent.contains(*v))
                    .map(|(v, _)| v.clone())
                    .collect();
                for (v, links) in &self.ready_links {
                    observer.ready_threshold(
                        step,
                        v,
                        links.len(),
                        quorum,
                        weak,
                        self.result.timely.contains(v),
                        self.working.contains(v),
                    );
                }
            }
            4 => {
                self.accumulate_ready(inbox);
                let quorum = self.quorum();
                self.result.accepted = self
                    .ready_links
                    .iter()
                    .filter(|(_, links)| links.len() >= quorum)
                    .map(|(v, _)| v.clone())
                    .collect();
                for (v, links) in &self.ready_links {
                    observer.accept_threshold(
                        step,
                        v,
                        links.len(),
                        quorum,
                        self.result.accepted.contains(v),
                    );
                }
                self.finished = true;
            }
            _ => panic!("flood has exactly 4 steps, got step {step}"),
        }
    }

    fn accumulate_ready<'a, I>(&mut self, inbox: I)
    where
        V: 'a,
        I: IntoIterator<Item = (LinkId, &'a FloodMsg<V>)>,
    {
        for (link, msg) in inbox {
            if let FloodMsg::Ready(set) = msg {
                for v in set.values_sorted() {
                    self.ready_links.entry(v).or_default().insert(link);
                }
            }
        }
    }

    /// The result, once step 4 has been delivered.
    pub(crate) fn result(&self) -> Option<&FloodResult<V>> {
        self.finished.then_some(&self.result)
    }
}
